//! Churn workload driver for the `egka-service` layer.
//!
//! Generates seeded Poisson join/leave traffic over thousands of
//! concurrent groups, drives the sharded service through rekey epochs and
//! reports throughput, rekey-latency distribution, events-coalesced ratio
//! and per-epoch energy. Everything that matters is deterministic per
//! seed: the keys, the event stream, every counter — only the wall-clock
//! latencies vary run to run.

use std::sync::Arc;
use std::time::{Duration, Instant};

use egka_core::{Pkg, SecurityProfile, UserId};
use egka_energy::{CpuModel, Transceiver};
use egka_hash::ChaChaRng;
use egka_medium::RadioProfile;
use egka_service::{
    EpochReport, EvictionPolicy, GroupId, KeyService, MembershipEvent, RadioConfig, Rebalancer,
    RecoveryReport, StoreConfig, SuiteId, SuitePolicy, SuiteUsage,
};
use rand::{Rng, SeedableRng};

use crate::report::RadioSummary;

/// Radio knobs for the churn scenario: run every rekey over the
/// virtual-time medium, optionally with finite batteries.
#[derive(Clone, Debug)]
pub struct RadioChurnConfig {
    /// Hardware/channel profile.
    pub profile: RadioProfile,
    /// Default per-member battery, microjoules (`f64::INFINITY` = mains).
    pub battery_uj: f64,
    /// The first `weak_nodes` user ids get `weak_battery_uj` instead —
    /// deterministic early deaths for the battery-exhaustion scenario.
    pub weak_nodes: u32,
    /// Budget of the weak nodes, microjoules.
    pub weak_battery_uj: f64,
}

impl RadioChurnConfig {
    /// The 100 kbps sensor field: 2 J batteries, two motes shipped with
    /// nearly-flat 100 mJ cells (they die mid-scenario).
    pub fn sensor_field() -> Self {
        RadioChurnConfig {
            profile: RadioProfile::sensor_100kbps(),
            battery_uj: 2_000_000.0,
            weak_nodes: 2,
            weak_battery_uj: 100_000.0,
        }
    }

    /// The equivalence configuration: 100 kbps channel, zero delay, zero
    /// loss, infinite batteries — must reproduce the instant-medium churn
    /// fingerprint bit for bit.
    pub fn ideal() -> Self {
        RadioChurnConfig {
            profile: RadioProfile::ideal(),
            battery_uj: f64::INFINITY,
            weak_nodes: 0,
            weak_battery_uj: f64::INFINITY,
        }
    }
}

/// A scripted misbehaviour the driver injects into the workload — the
/// raw material the identifiable-abort eviction engine is judged on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultSpec {
    /// `member` stops acknowledging rekeys from `from_epoch` (1-based)
    /// onwards and never comes back: the classic byzantine-silent
    /// culprit. Its group stalls until the engine evicts it.
    ByzantineSilent {
        /// Which user goes silent.
        member: u32,
        /// First epoch of silence.
        from_epoch: u64,
    },
    /// `member`'s link flaps: down for `period` epochs, up for `period`,
    /// repeating from epoch 1. Each down phase accrues a fresh stall
    /// streak, so the member is evicted, readmitted once its quarantine
    /// penalty elapses, and re-evicted with an escalated penalty.
    Flapping {
        /// Which user flaps.
        member: u32,
        /// Epochs per phase (down, then up).
        period: u64,
    },
}

/// Live resharding schedule for the churn scenario: starting at
/// `from_epoch`, the driver calls [`KeyService::add_shard`] at the top of
/// each epoch — mid-churn, with Poisson traffic already queued — until the
/// pool reaches `target_shards`. Keys are placement-independent, so a
/// resharded run must reproduce the static-pool fingerprint bit for bit;
/// the driver's tests pin exactly that.
#[derive(Clone, Copy, Debug)]
pub struct ReshardPlan {
    /// Shard-pool size to reach (the pool starts at
    /// [`ChurnConfig::shards`]).
    pub target_shards: usize,
    /// First epoch (1-based) at which shards are added.
    pub from_epoch: u64,
    /// Shards added per epoch once the schedule starts.
    pub per_epoch: usize,
    /// Also arm the service's pending-load rebalancer.
    pub rebalancer: Option<Rebalancer>,
}

impl ReshardPlan {
    /// The `reshard` churn preset's schedule: grow 4 → 16 shards,
    /// three per epoch from epoch 2, with the default rebalancer armed.
    pub fn four_to_sixteen() -> Self {
        ReshardPlan {
            target_shards: 16,
            from_epoch: 2,
            per_epoch: 3,
            rebalancer: Some(Rebalancer::default()),
        }
    }
}

/// Workload shape.
#[derive(Clone, Debug)]
pub struct ChurnConfig {
    /// Concurrent groups.
    pub groups: u64,
    /// Founding group size (varied deterministically in `size..size+3`).
    pub group_size: u32,
    /// Rekey epochs to drive.
    pub epochs: u64,
    /// Poisson rate of joins per group per epoch.
    pub join_rate: f64,
    /// Poisson rate of leaves per group per epoch.
    pub leave_rate: f64,
    /// Service shards.
    pub shards: usize,
    /// Master seed (event stream + all protocol randomness).
    pub seed: u64,
    /// Per-delivery loss probability injected into every rekey medium
    /// (exercises the scheduler's timeout/retransmission path; `0.0` is
    /// the reliable baseline).
    pub loss: f64,
    /// Run every rekey over the virtual-time radio medium (`None` = the
    /// classic instant-medium scenario). Battery-dead members are evicted
    /// by the driver: it submits a `Leave` for each corpse, the way a real
    /// deployment's failure detector would.
    pub radio: Option<RadioChurnConfig>,
    /// How groups pick their GKA suite (default: every group runs the
    /// proposed scheme — the legacy scenario, golden-pinned).
    pub suite_policy: SuitePolicy,
    /// Record structured trace events (virtual-clock spans + instants)
    /// into this sink while the scenario runs. `None` (the default) keeps
    /// tracing a measured no-op. Instrumentation is purely observational,
    /// so fingerprints and counters are identical either way — and, being
    /// keyed to the virtual clock, the recorded events themselves are
    /// deterministic per seed.
    pub trace: Option<egka_trace::TraceConfig>,
    /// Arm the service's identifiable-abort eviction engine (`None`, the
    /// default, keeps the legacy golden-pinned behaviour: stalled groups
    /// retry forever).
    pub eviction: Option<EvictionPolicy>,
    /// Scripted faults the driver injects ([`FaultSpec`]). Evicted
    /// members are rejoined by the driver once their link is up and
    /// their quarantine penalty has elapsed, the way a real deployment's
    /// clients would retry.
    pub faults: Vec<FaultSpec>,
    /// Grow the shard pool live, mid-churn ([`ReshardPlan`]). `None` (the
    /// default) keeps the pool fixed at [`ChurnConfig::shards`].
    pub reshard: Option<ReshardPlan>,
}

impl Default for ChurnConfig {
    fn default() -> Self {
        ChurnConfig {
            groups: 1000,
            group_size: 4,
            epochs: 10,
            join_rate: 0.7,
            leave_rate: 0.6,
            shards: 8,
            seed: 0xc452_4e01,
            loss: 0.0,
            radio: None,
            suite_policy: SuitePolicy::default(),
            trace: None,
            eviction: None,
            faults: Vec::new(),
            reshard: None,
        }
    }
}

impl ChurnConfig {
    /// The radio scenario: 40 groups over the sensor-field radio (finite
    /// batteries, two nearly-flat motes). The `churn` runner's `radio`
    /// preset adds 1 % loss to it; the tests drive it as is.
    pub fn radio_bench() -> Self {
        ChurnConfig {
            groups: 40,
            epochs: 4,
            radio: Some(RadioChurnConfig::sensor_field()),
            ..ChurnConfig::default()
        }
    }

    /// The mixed-suite scenario: founding sizes 2..4 straddle the
    /// closed-form crossover on the paper's low-power profile (StrongARM +
    /// 100 kbps radio), so a `Cheapest` policy provably selects more than
    /// one protocol across the fleet.
    pub fn mixed_suite_bench() -> Self {
        ChurnConfig {
            group_size: 2,
            suite_policy: SuitePolicy::Cheapest {
                cpu: CpuModel::strongarm_133(),
                transceiver: Transceiver::radio_100kbps(),
            },
            ..ChurnConfig::default()
        }
    }

    /// Adds a byzantine-silent fault: `member` stops responding from
    /// `from_epoch` (1-based) and never recovers.
    pub fn byzantine_silent(mut self, member: u32, from_epoch: u64) -> Self {
        self.faults
            .push(FaultSpec::ByzantineSilent { member, from_epoch });
        self
    }

    /// Adds a flapping fault: `member`'s link alternates `period` epochs
    /// down, `period` epochs up, starting down at epoch 1.
    pub fn flapping(mut self, member: u32, period: u64) -> Self {
        self.faults.push(FaultSpec::Flapping { member, period });
        self
    }

    /// The robustness scenario (the `churn` runner's `robust` preset): 60
    /// groups, eviction armed with the default policy, one
    /// byzantine-silent member and one flapper whose cadence forces the
    /// full evict → readmit → re-evict arc inside the run.
    pub fn robust_bench() -> Self {
        ChurnConfig {
            groups: 60,
            epochs: 12,
            eviction: Some(EvictionPolicy::default()),
            ..ChurnConfig::default()
        }
        .byzantine_silent(1, 2)
        .flapping(5, 4)
    }

    /// The live-resharding scenario (the `churn` runner's `reshard`
    /// preset): 400 groups on 4 shards, grown live to 16 mid-churn under
    /// Poisson load with the rebalancer armed. The acceptance gate is zero
    /// stalled epochs and a fingerprint bit-identical to the same workload
    /// on a static pool.
    pub fn reshard_bench() -> Self {
        ChurnConfig {
            groups: 400,
            epochs: 8,
            shards: 4,
            reshard: Some(ReshardPlan::four_to_sixteen()),
            ..ChurnConfig::default()
        }
    }
}

/// One epoch: the events submitted for it and the service's tick report
/// (epoch number, rekeys, coalescing, energy, latencies).
#[derive(Clone, Debug)]
pub struct ChurnEpoch {
    /// Events submitted for this epoch.
    pub events: u64,
    /// The epoch's [`KeyService::tick`] report.
    pub report: EpochReport,
}

/// Scenario outcome.
#[derive(Clone, Debug)]
pub struct ChurnReport {
    /// Config echoed back.
    pub groups: u64,
    /// Total events the scenario submitted across all epochs (the service's
    /// own totals are in `metrics`).
    pub events_submitted: u64,
    /// Per-epoch breakdown.
    pub epochs: Vec<ChurnEpoch>,
    /// Virtual-time summary (latency quantiles in virtual ms, battery
    /// ledger, deaths) — radio scenarios only.
    pub radio: Option<RadioSummary>,
    /// Per-suite breakdown: live groups, executed rekeys and priced
    /// energy per GKA suite. One entry under a `Fixed` policy; a
    /// `Cheapest` fleet splits across the crossover.
    pub suites: Vec<SuiteBreakdown>,
    /// Set when the scenario killed and recovered the controller
    /// mid-scenario ([`run_churn_with_crash`]): what the recovery
    /// replayed. Counters above only cover the post-recovery service life
    /// (observability resets with the process; the *keys* do not — the
    /// fingerprint must equal the uninterrupted run's).
    pub recovery: Option<CrashSummary>,
    /// Wall-clock of the whole scenario (setup + all ticks).
    pub wall: Duration,
    /// Events applied per wall-clock second.
    pub throughput_eps: f64,
    /// XOR-fold of every surviving group key — a determinism fingerprint:
    /// equal seeds must produce equal fingerprints.
    pub key_fingerprint: u64,
    /// The service's full cumulative counter set at scenario end — the
    /// bench artifacts embed it via
    /// [`egka_service::ServiceMetrics::to_json`] instead of hand-picking
    /// fields.
    pub metrics: egka_service::ServiceMetrics,
    /// Per-shard load and outcome stats at scenario end
    /// ([`egka_service::KeyService::shard_stats`]); counters sum to
    /// `metrics`.
    pub shards: Vec<egka_service::ShardStats>,
    /// The service's typed liveness verdict at scenario end.
    pub health: egka_service::HealthReport,
    /// Per-member stall attribution rows, worst offenders included —
    /// empty on a fault-free run.
    pub member_stalls: Vec<egka_service::StallRecord>,
    /// Quarantine cells `(member, until_epoch, evictions)` at scenario
    /// end — non-empty only when the eviction engine fired.
    pub quarantine: Vec<(u32, u64, u32)>,
    /// Fault-injected groups still stalled at scenario end. The
    /// robustness acceptance gate: with eviction armed this must be
    /// zero — every group with a scripted culprit completes over the
    /// survivors.
    pub stalled_faulted_groups: u64,
    /// Trace events dropped by the ring sink (`None` untraced). Any
    /// nonzero value means the trace (and its fingerprints) is
    /// incomplete — the bench gates fail on it.
    pub trace_drops: Option<u64>,
    /// Rendered metrics-registry table (`None` unless a registry was
    /// attached to [`ChurnConfig::trace`]) — the live-counter view a
    /// `--trace` run prints without needing a Perfetto export.
    pub metrics_table: Option<String>,
}

/// What a mid-scenario crash + recovery replayed
/// ([`ChurnReport::recovery`]).
#[derive(Clone, Copy, Debug)]
pub struct CrashSummary {
    /// Epoch (1-based) at which the controller was killed — after that
    /// epoch's events were submitted (and WAL-logged), before its tick.
    pub kill_epoch: u64,
    /// Epoch the restored snapshot covered, if one had been cut.
    pub snapshot_epoch: Option<u64>,
    /// WAL tail records replayed through the service entry points.
    pub records_replayed: u64,
    /// Committed epochs re-executed from the tail.
    pub epochs_replayed: u64,
    /// Live groups after recovery.
    pub groups_recovered: u64,
}

impl From<(u64, RecoveryReport)> for CrashSummary {
    fn from((kill_epoch, r): (u64, RecoveryReport)) -> Self {
        CrashSummary {
            kill_epoch,
            snapshot_epoch: r.snapshot_epoch,
            records_replayed: r.records_replayed,
            epochs_replayed: r.epochs_replayed,
            groups_recovered: r.groups_recovered,
        }
    }
}

/// One suite's share of a churn scenario.
#[derive(Clone, Debug)]
pub struct SuiteBreakdown {
    /// Which suite.
    pub suite: SuiteId,
    /// Live groups running it at scenario end.
    pub groups: u64,
    /// Rekeys (creations included) executed under it.
    pub rekeys: u64,
    /// Priced energy attributed to it, mJ.
    pub energy_mj: f64,
}

/// Knuth's Poisson sampler over the shim RNG (exact for the small rates
/// used here).
fn poisson<R: Rng + ?Sized>(rng: &mut R, lambda: f64) -> u64 {
    let l = (-lambda).exp();
    let mut k = 0u64;
    let mut p = 1.0f64;
    loop {
        p *= (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        if p <= l {
            return k;
        }
        k += 1;
    }
}

/// Runs the churn scenario.
///
/// Group membership is mirrored driver-side so every generated event is
/// valid by construction (joins use fresh identities; leaves pick live
/// members and never shrink a group below three) — the service's rejection
/// counters must therefore stay at zero, which the driver asserts.
pub fn run_churn(config: &ChurnConfig) -> ChurnReport {
    run_churn_inner(config, None)
}

/// Runs the churn scenario against a durable service and **kills the
/// controller mid-scenario**: at epoch `kill_epoch` (1-based), after that
/// epoch's events are submitted (and therefore write-ahead logged) but
/// before its tick, the service is dropped and a fresh one is recovered
/// from `store` — snapshot + WAL tail — then the scenario finishes.
///
/// The clients (the driver's membership mirror and event stream) survive
/// the controller crash, as they would in a real deployment. Determinism
/// makes the acceptance check exact: the finished run's
/// [`ChurnReport::key_fingerprint`] must be bit-for-bit equal to the
/// uninterrupted [`run_churn`] of the same config.
///
/// # Panics
/// Panics if `kill_epoch` is not within `1..=config.epochs`, or if
/// recovery fails (a damaged store).
pub fn run_churn_with_crash(
    config: &ChurnConfig,
    store: StoreConfig,
    kill_epoch: u64,
) -> ChurnReport {
    assert!(
        (1..=config.epochs).contains(&kill_epoch),
        "kill_epoch {kill_epoch} outside 1..={}",
        config.epochs
    );
    run_churn_inner(config, Some((store, kill_epoch)))
}

/// Assembles the service builder for `config` (shared by the initial
/// build and the post-crash recovery, so the two cannot drift).
fn assemble_builder(
    config: &ChurnConfig,
    store: Option<StoreConfig>,
) -> egka_service::ServiceBuilder {
    let mut builder = KeyService::builder()
        .shards(config.shards)
        .seed(config.seed)
        .suite_policy(config.suite_policy.clone());
    if let Some(r) = &config.radio {
        builder = builder.radio(RadioConfig {
            profile: r.profile.clone(),
            default_battery_uj: r.battery_uj,
        });
    }
    if config.loss > 0.0 {
        builder = builder.loss(config.loss);
    }
    if let Some(policy) = config.eviction {
        builder = builder.eviction(policy);
    }
    if let Some(rb) = config.reshard.as_ref().and_then(|p| p.rebalancer) {
        builder = builder.rebalancer(rb);
    }
    if let Some(store) = store {
        builder = builder.store(store);
    }
    if let Some(trace) = &config.trace {
        builder = builder.trace(trace.clone());
    }
    builder
}

fn run_churn_inner(config: &ChurnConfig, crash: Option<(StoreConfig, u64)>) -> ChurnReport {
    let started = Instant::now();
    let mut rng = ChaChaRng::seed_from_u64(config.seed ^ 0xc4_52_4e);
    let mut setup_rng = ChaChaRng::seed_from_u64(config.seed ^ 0x5e_70);
    let pkg = Arc::new(Pkg::setup(&mut setup_rng, SecurityProfile::Toy));
    let mut svc =
        assemble_builder(config, crash.as_ref().map(|(s, _)| s.clone())).build(Arc::clone(&pkg));
    if let Some(radio) = &config.radio {
        for u in 0..radio.weak_nodes {
            svc.set_battery(UserId(u), radio.weak_battery_uj);
        }
    }

    // Founding membership: disjoint id ranges per group, sizes varied in
    // `group_size..group_size+3`.
    let mut next_user: u32 = 0;
    let mut mirror: Vec<(GroupId, Vec<UserId>)> = Vec::with_capacity(config.groups as usize);
    for g in 0..config.groups {
        let size = config.group_size + (g % 3) as u32;
        let members: Vec<UserId> = (next_user..next_user + size).map(UserId).collect();
        next_user += size;
        svc.create_group(g, &members).expect("create churn group");
        mirror.push((g, members));
    }

    let mut epochs = Vec::with_capacity(config.epochs as usize);
    let mut events_submitted = 0u64;
    let mut evicted: std::collections::BTreeSet<UserId> = std::collections::BTreeSet::new();
    let mut recovery: Option<CrashSummary> = None;
    // Robustness bookkeeping: links the fault script holds down, homes of
    // members the engine evicted (so the driver can rejoin them), and the
    // groups a scripted culprit ever belonged to (the acceptance gate).
    let mut fault_down: std::collections::BTreeSet<u32> = std::collections::BTreeSet::new();
    let scripted: std::collections::BTreeSet<u32> = config
        .faults
        .iter()
        .map(|f| match *f {
            FaultSpec::ByzantineSilent { member, .. } => member,
            FaultSpec::Flapping { member, .. } => member,
        })
        .collect();
    let mut evicted_home: std::collections::BTreeMap<u32, GroupId> =
        std::collections::BTreeMap::new();
    let mut faulted_groups: std::collections::BTreeSet<GroupId> = std::collections::BTreeSet::new();
    for epoch_idx in 0..config.epochs {
        let mut epoch_events = 0u64;
        let epoch = epoch_idx + 1;
        // The resharding schedule runs at the top of the epoch, with the
        // previous epochs' groups (and any still-queued events) live on
        // the pool — every add is a mid-churn live handoff. Guarding on
        // the service's own shard count makes the step idempotent across
        // a crash: replayed AddShard records already grew the pool.
        if let Some(plan) = &config.reshard {
            if epoch >= plan.from_epoch {
                for _ in 0..plan.per_epoch {
                    if svc.shard_count() < plan.target_shards {
                        svc.add_shard();
                    }
                }
            }
        }
        // Evictions can legitimately dissolve a group (all its members
        // died or left); stop generating traffic for the tombstone.
        if config.radio.is_some() || config.eviction.is_some() {
            let live: std::collections::BTreeSet<GroupId> = svc.group_ids().into_iter().collect();
            mirror.retain(|(g, _)| live.contains(g));
        }
        // The fault script: silence and flapping are link-level, so the
        // driver detaches/reattaches the member. Every down transition
        // also submits a fresh Join to the victim's group — guaranteed
        // traffic, so the stall streak accrues deterministically instead
        // of riding on the Poisson draw.
        for fault in &config.faults {
            let (member, goes_down) = match *fault {
                FaultSpec::ByzantineSilent { member, from_epoch } => {
                    if epoch != from_epoch {
                        continue;
                    }
                    (member, true)
                }
                FaultSpec::Flapping { member, period } => {
                    if (epoch - 1) % period != 0 {
                        continue;
                    }
                    (member, ((epoch - 1) / period) % 2 == 0)
                }
            };
            let u = UserId(member);
            if goes_down {
                svc.detach_member(u);
                fault_down.insert(member);
                if let Some(at) = mirror.iter().position(|(_, ms)| ms.contains(&u)) {
                    let (g, members) = &mut mirror[at];
                    faulted_groups.insert(*g);
                    let j = UserId(next_user);
                    next_user += 1;
                    svc.submit(*g, MembershipEvent::Join(j))
                        .expect("fault join submit");
                    members.push(j);
                    epoch_events += 1;
                }
            } else {
                svc.attach_member(u);
                fault_down.remove(&member);
            }
        }
        // The deployment's failure detector: members whose battery died
        // in an earlier epoch are evicted with an ordinary Leave — the
        // survivors' Partition (or fallback GKA) never needs the dead
        // radio, so the group recovers.
        for u in svc.dead_members() {
            if !evicted.insert(u) {
                continue;
            }
            if let Some((g, members)) = mirror.iter_mut().find(|(_, members)| members.contains(&u))
            {
                svc.submit(*g, MembershipEvent::Leave(u)).expect("evict");
                members.retain(|&m| m != u);
                epoch_events += 1;
            }
        }
        // Members the engine evicted rejoin once their link is back up
        // and their quarantine penalty has elapsed — the flapping
        // re-eviction path runs through here.
        let rejoinable: Vec<u32> = evicted_home
            .keys()
            .copied()
            .filter(|m| !fault_down.contains(m) && !svc.is_quarantined(UserId(*m)))
            .collect();
        for m in rejoinable {
            let g = evicted_home
                .remove(&m)
                .expect("rejoinable member has a home");
            if let Some(at) = mirror.iter().position(|(gg, _)| *gg == g) {
                svc.submit(g, MembershipEvent::Join(UserId(m)))
                    .expect("readmission join submit");
                mirror[at].1.push(UserId(m));
                epoch_events += 1;
            }
        }
        for (g, members) in mirror.iter_mut() {
            let joins = poisson(&mut rng, config.join_rate);
            let leaves = poisson(&mut rng, config.leave_rate);
            for _ in 0..joins {
                let u = UserId(next_user);
                next_user += 1;
                svc.submit(*g, MembershipEvent::Join(u))
                    .expect("join submit");
                members.push(u);
                epoch_events += 1;
            }
            for _ in 0..leaves {
                if members.len() <= 3 {
                    break; // keep every group rekeyable forever
                }
                let at = (rng.next_u64() % members.len() as u64) as usize;
                if scripted.contains(&members[at].0) {
                    continue; // the fault script owns its members' exits
                }
                let u = members.remove(at);
                svc.submit(*g, MembershipEvent::Leave(u))
                    .expect("leave submit");
                epoch_events += 1;
            }
        }
        events_submitted += epoch_events;
        // The crash point: this epoch's events are in the WAL but its
        // commit is not — the controller dies and a new process recovers
        // from snapshot + tail, mid-scenario.
        if let Some((store, kill_epoch)) = &crash {
            if *kill_epoch == epoch_idx + 1 {
                drop(svc);
                let (restored, rr) = assemble_builder(config, Some(store.clone()))
                    .recover(Arc::clone(&pkg))
                    .expect("recover the churn controller from its store");
                svc = restored;
                recovery = Some(CrashSummary::from((*kill_epoch, rr)));
            }
        }
        let report = svc.tick();
        assert_eq!(
            report.events_rejected, 0,
            "driver generates only valid events"
        );
        for &(g, u) in &report.evicted {
            if let Some((_, members)) = mirror.iter_mut().find(|(gg, _)| *gg == g) {
                members.retain(|&m| m != u);
            }
            evicted_home.insert(u.0, g);
        }
        epochs.push(ChurnEpoch {
            events: epoch_events,
            report,
        });
    }

    let metrics = svc.metrics().clone();
    let wall = started.elapsed();
    let radio = config.radio.as_ref().map(|_| {
        let mut batteries = svc.battery_status();
        let total_spent_uj = batteries.iter().map(|s| s.spent_uj).sum();
        batteries.sort_by(|a, b| {
            b.spent_uj
                .partial_cmp(&a.spent_uj)
                .expect("drain is finite")
        });
        batteries.truncate(5);
        RadioSummary {
            latency_quantiles_ms: metrics.virtual_latency_quantiles(),
            nodes_died: metrics.nodes_died,
            died: svc.dead_members().iter().map(|u| u.0).collect(),
            total_spent_uj,
            top_spenders: batteries,
        }
    });
    let groups_per_suite = svc.groups_per_suite();
    let suites: Vec<SuiteBreakdown> = SuiteId::ALL
        .into_iter()
        .filter_map(|id| {
            let groups = groups_per_suite.get(&id).copied().unwrap_or(0);
            let usage: SuiteUsage = metrics.per_suite.get(&id).copied().unwrap_or_default();
            (groups > 0 || usage.rekeys > 0).then_some(SuiteBreakdown {
                suite: id,
                groups,
                rekeys: usage.rekeys,
                energy_mj: usage.energy_mj,
            })
        })
        .collect();
    let key_fingerprint = svc
        .group_ids()
        .iter()
        .map(|&g| {
            let bytes = svc.group_key(g).expect("live group").to_bytes_be();
            bytes
                .iter()
                .fold(0u64, |acc, &b| acc.rotate_left(8) ^ u64::from(b))
        })
        .fold(0u64, |acc, h| acc.rotate_left(1) ^ h);

    let quarantine = svc.quarantine_rows();
    let stalled_faulted_groups = match svc.health() {
        egka_service::HealthReport::Stalled { ref groups } => {
            groups.iter().filter(|g| faulted_groups.contains(g)).count() as u64
        }
        _ => 0,
    };
    let (trace_drops, metrics_table) = match &config.trace {
        Some(tc) => (
            Some(tc.sink.dropped()),
            tc.registry.as_ref().map(|r| r.snapshot().render_table()),
        ),
        None => (None, None),
    };
    ChurnReport {
        groups: config.groups,
        events_submitted,
        epochs,
        radio,
        suites,
        recovery,
        wall,
        throughput_eps: metrics.events_applied as f64 / wall.as_secs_f64().max(1e-9),
        key_fingerprint,
        shards: svc.shard_stats(),
        health: svc.health(),
        member_stalls: svc.stall_ledger().member_records(),
        quarantine,
        stalled_faulted_groups,
        trace_drops,
        metrics_table,
        metrics,
    }
}

impl ChurnReport {
    /// Renders the per-epoch table plus summary as plain text.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:>5} {:>8} {:>8} {:>9} {:>14} {:>12} {:>12} {:>12}",
            "epoch", "events", "rekeys", "coalesce", "energy (mJ)", "p50", "p95", "max"
        );
        for ChurnEpoch { events, report } in &self.epochs {
            let (p50, p95, max) = match report.latency_quantiles() {
                Some((a, b, c)) => (format!("{a:.1?}"), format!("{b:.1?}"), format!("{c:.1?}")),
                None => ("-".into(), "-".into(), "-".into()),
            };
            let _ = writeln!(
                out,
                "{:>5} {:>8} {:>8} {:>9.2} {:>14.1} {:>12} {:>12} {:>12}",
                report.epoch,
                events,
                report.rekeys_executed,
                report.coalesce_ratio(),
                report.energy_mj,
                p50,
                p95,
                max
            );
        }
        if self
            .epochs
            .iter()
            .any(|e| !e.report.rekey_latencies_virtual_ms.is_empty())
        {
            let _ = writeln!(out);
            let _ = writeln!(
                out,
                "{:>5} {:>12} {:>12} {:>12}  (rekey latency, virtual radio ms)",
                "epoch", "v-p50", "v-p95", "v-p99"
            );
            for e in &self.epochs {
                let (p50, p95, p99) = match e.report.latency_quantiles_virtual() {
                    Some((a, b, c)) => (format!("{a:.1}"), format!("{b:.1}"), format!("{c:.1}")),
                    None => ("-".into(), "-".into(), "-".into()),
                };
                let _ = writeln!(
                    out,
                    "{:>5} {:>12} {:>12} {:>12}",
                    e.report.epoch, p50, p95, p99
                );
            }
        }
        let _ = writeln!(out);
        let _ = writeln!(
            out,
            "groups: {} live / {} created   events: {} applied / {} submitted",
            self.metrics.groups_active,
            self.groups,
            self.metrics.events_applied,
            self.events_submitted
        );
        if let Some(radio) = &self.radio {
            let _ = write!(out, "{}", radio.render());
        }
        if self.suites.len() > 1 {
            let mix = self
                .suites
                .iter()
                .map(|s| {
                    format!(
                        "{} ({} groups, {} rekeys, {:.1} mJ)",
                        s.suite.key(),
                        s.groups,
                        s.rekeys,
                        s.energy_mj
                    )
                })
                .collect::<Vec<_>>()
                .join("   ");
            let _ = writeln!(out, "suites: {mix}");
        }
        let _ = writeln!(
            out,
            "rekeys: {}   events-coalesced ratio: {:.2}   total energy: {:.1} mJ",
            self.metrics.rekeys_executed,
            self.metrics.coalesce_ratio(),
            self.metrics.energy_mj
        );
        if self.metrics.groups_stalled > 0 || self.metrics.steps_retried > 0 {
            let _ = writeln!(
                out,
                "faults: {} group-epochs stalled   {} steps retransmitted",
                self.metrics.groups_stalled, self.metrics.steps_retried
            );
        }
        if !self.shards.is_empty() {
            let _ = writeln!(out);
            let _ = writeln!(
                out,
                "{:>5} {:>7} {:>8} {:>8} {:>7} {:>7} {:>8} {:>14} {:>10}",
                "shard",
                "groups",
                "pending",
                "applied",
                "rekeys",
                "failed",
                "retried",
                "energy (mJ)",
                "wal (B)"
            );
            for s in &self.shards {
                let _ = writeln!(
                    out,
                    "{:>5} {:>7} {:>8} {:>8} {:>7} {:>7} {:>8} {:>14.1} {:>10}",
                    s.shard,
                    s.groups,
                    s.pending_events,
                    s.events_applied,
                    s.rekeys_executed,
                    s.rekeys_failed,
                    s.steps_retried,
                    s.energy_mj,
                    s.wal_bytes
                );
            }
        }
        match &self.health {
            egka_service::HealthReport::Healthy => {
                let _ = writeln!(out, "health: healthy");
            }
            egka_service::HealthReport::Degraded { reasons } => {
                let _ = writeln!(out, "health: degraded — {}", reasons.join("; "));
            }
            egka_service::HealthReport::Stalled { groups } => {
                let _ = writeln!(
                    out,
                    "health: STALLED — groups {groups:?} making no progress"
                );
            }
        }
        if !self.member_stalls.is_empty() {
            let mut rows = self.member_stalls.clone();
            rows.sort_by_key(|r| std::cmp::Reverse(r.stall.cumulative));
            rows.truncate(5);
            let attribution = rows
                .iter()
                .map(|r| {
                    format!(
                        "g{}/u{}: {}x (streak {}, {})",
                        r.group,
                        r.member.0,
                        r.stall.cumulative,
                        r.stall.consecutive,
                        r.stall.last_cause.label()
                    )
                })
                .collect::<Vec<_>>()
                .join("   ");
            let _ = writeln!(out, "stall ledger (worst): {attribution}");
        }
        if self.metrics.members_evicted > 0 || !self.quarantine.is_empty() {
            let cells = self
                .quarantine
                .iter()
                .map(|&(m, until, n)| format!("u{m}: until e{until} ({n}x)"))
                .collect::<Vec<_>>()
                .join("   ");
            let _ = writeln!(
                out,
                "evictions: {} members, {} blame certs, {} readmitted   quarantine: {}",
                self.metrics.members_evicted,
                self.metrics.blame_certs,
                self.metrics.members_readmitted,
                if cells.is_empty() { "-".into() } else { cells }
            );
            let _ = writeln!(
                out,
                "faulted groups stalled at end: {}",
                self.stalled_faulted_groups
            );
        }
        if let Some(rec) = &self.recovery {
            let snap = match rec.snapshot_epoch {
                Some(e) => format!("snapshot@{e}"),
                None => "no snapshot".into(),
            };
            let _ = writeln!(
                out,
                "recovery: controller killed at epoch {} — {} + {} wal records \
                 ({} epochs re-run), {} groups recovered",
                rec.kill_epoch,
                snap,
                rec.records_replayed,
                rec.epochs_replayed,
                rec.groups_recovered
            );
        }
        let _ = writeln!(
            out,
            "wall: {:.2?}   throughput: {:.0} events/s   key fingerprint: {:016x}",
            self.wall, self.throughput_eps, self.key_fingerprint
        );
        // A traced run with a registry attached gets its live-counter
        // table inline — no Perfetto export needed to see the numbers.
        if let Some(table) = &self.metrics_table {
            let _ = writeln!(out);
            let _ = write!(out, "{table}");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> ChurnConfig {
        ChurnConfig {
            groups: 12,
            group_size: 4,
            epochs: 3,
            join_rate: 0.8,
            leave_rate: 0.5,
            shards: 4,
            seed: 0x5eed,
            loss: 0.0,
            radio: None,
            suite_policy: SuitePolicy::default(),
            trace: None,
            eviction: None,
            faults: Vec::new(),
            reshard: None,
        }
    }

    #[test]
    fn churn_scenario_runs_and_coalesces() {
        let report = run_churn(&small());
        assert_eq!(
            report.metrics.groups_active, 12,
            "leaves never shrink below three"
        );
        assert!(report.metrics.events_applied > 0);
        assert!(report.metrics.coalesce_ratio() >= 1.0);
        assert!(report.metrics.energy_mj > 0.0);
        assert_eq!(report.epochs.len(), 3);
        assert!(!report.render().is_empty());
    }

    #[test]
    fn churn_is_deterministic_per_seed() {
        let a = run_churn(&small());
        let b = run_churn(&small());
        assert_eq!(a.key_fingerprint, b.key_fingerprint);
        assert_eq!(a.metrics.events_applied, b.metrics.events_applied);
        assert_eq!(a.metrics.rekeys_executed, b.metrics.rekeys_executed);
        let mut other = small();
        other.seed ^= 1;
        let c = run_churn(&other);
        assert_ne!(a.key_fingerprint, c.key_fingerprint);
    }

    #[test]
    fn churn_matches_blocking_driver_golden() {
        // Fingerprint + counters captured from the seed's blocking
        // lock-step drivers (commit `9f68242`): the poll-driven engine,
        // the interleaved shard scheduler and jump consistent hashing
        // must all be observationally transparent.
        let report = run_churn(&small());
        assert_eq!(report.key_fingerprint, 0x6e14_e41f_677b_0a8b);
        assert_eq!(report.metrics.events_applied, 55);
        assert_eq!(report.metrics.rekeys_executed, 36);
        assert!((report.metrics.energy_mj - 41_399.819_52).abs() < 1e-3);
    }

    #[test]
    fn churn_over_ideal_radio_matches_the_instant_golden_bit_for_bit() {
        // Medium equivalence: with zero delay, zero loss and
        // infinite batteries, a churn run over `egka-medium` (airtime
        // serialization and all) reproduces the instant-medium golden
        // (`churn_matches_blocking_driver_golden`) exactly — fingerprint,
        // counters and priced energy.
        let mut config = small();
        config.radio = Some(RadioChurnConfig::ideal());
        let report = run_churn(&config);
        assert_eq!(report.key_fingerprint, 0x6e14_e41f_677b_0a8b);
        assert_eq!(report.metrics.events_applied, 55);
        assert_eq!(report.metrics.rekeys_executed, 36);
        assert!((report.metrics.energy_mj - 41_399.819_52).abs() < 1e-3);
        assert_eq!(report.metrics.groups_stalled, 0);
        // And the radio view is populated: every rekey has a virtual
        // latency (airtime is real even with zero link delay).
        let radio = report.radio.expect("radio summary");
        let (p50, _, p99) = radio.latency_quantiles_ms.expect("virtual quantiles");
        assert!(p50 > 0.0 && p99 >= p50);
        assert_eq!(radio.nodes_died, 0);
        assert!(radio.total_spent_uj > 0.0);
    }

    #[test]
    fn radio_churn_kills_weak_motes_but_preserves_liveness() {
        // The acceptance scenario: a seeded run over the 100 kbps sensor
        // medium with nonzero delay, finite batteries and two nearly-flat
        // motes. Both die mid-epoch; their groups stall for that epoch
        // (and only that epoch — the driver evicts the corpses), while
        // every other group keeps completing rekeys.
        let mut config = small();
        config.radio = Some(RadioChurnConfig::sensor_field());
        let report = run_churn(&config);
        let radio = report.radio.as_ref().expect("radio summary");
        assert!(radio.nodes_died >= 1, "a weak mote must die mid-epoch");
        assert!(radio.died.iter().all(|&u| u < 2), "only the weak die");
        assert!(
            report.metrics.groups_stalled >= 1,
            "the dying mote's group times out for its epoch"
        );
        // Liveness: the scenario as a whole keeps rekeying — stalls stay
        // a small minority, and at most the weak motes' own group is lost
        // (evicting every member a group has left legitimately dissolves
        // it; both weak motes are founders of group 0).
        assert!(report.metrics.rekeys_executed > report.metrics.groups_stalled * 4);
        assert!(report.metrics.groups_active >= config.groups - 1);
        let (p50, p95, p99) = radio.latency_quantiles_ms.expect("virtual quantiles");
        assert!(p50 <= p95 && p95 <= p99);
        assert!(p50 > 10.0, "kilobit rounds on 100 kbps take tens of vms");
        // Determinism, deaths and all.
        let again = run_churn(&config);
        assert_eq!(report.key_fingerprint, again.key_fingerprint);
        assert_eq!(radio.died, again.radio.as_ref().unwrap().died);
        assert_eq!(
            radio.latency_quantiles_ms,
            again.radio.as_ref().unwrap().latency_quantiles_ms
        );
        assert!(!report.render().is_empty());
    }

    #[test]
    fn lossy_churn_retries_and_still_terminates() {
        let mut config = small();
        config.loss = 0.01;
        let report = run_churn(&config);
        assert_eq!(report.metrics.groups_active, 12);
        assert!(report.metrics.events_applied > 0);
        // 1% loss must not wipe out the workload: most group-epochs still
        // rekey, and stalls stay bounded by the total attempted.
        assert!(report.metrics.rekeys_executed > report.metrics.groups_stalled);
        assert!(report.metrics.groups_stalled <= report.groups * report.epochs.len() as u64);
        assert!(!report.render().is_empty());
        // Determinism holds under loss too.
        let again = run_churn(&config);
        assert_eq!(report.key_fingerprint, again.key_fingerprint);
        assert_eq!(report.metrics.steps_retried, again.metrics.steps_retried);
    }

    #[test]
    fn lossy_churn_matches_the_instant_loss_golden() {
        // Pins the instant medium's seeded loss path: one xorshift64* draw
        // per audible recipient, in recipient order, at send time, and the
        // scheduler's retries that the resulting drops trigger. Captured
        // before the medium moved inside `Execution`; any change to the
        // draw order, the charging or the sweep boundary moves it.
        let mut config = small();
        config.loss = 0.01;
        let report = run_churn(&config);
        assert_eq!(report.key_fingerprint, 0x9275_99ab_cbfb_f355);
        assert_eq!(report.metrics.events_applied, 50);
        assert_eq!(report.metrics.rekeys_executed, 33);
        assert_eq!(report.metrics.groups_stalled, 2);
        assert_eq!(report.metrics.steps_retried, 9);
        assert!((report.metrics.energy_mj - 53_566.753_44).abs() < 1e-3);
    }

    #[test]
    fn cheapest_policy_runs_a_mixed_suite_fleet() {
        // Founding sizes 2..4 straddle the ECDSA/proposed crossover on the
        // sensor profile, so the Cheapest policy must field at least two
        // distinct suites — and the whole mixed fleet must stay
        // deterministic and keep every group rekeyable.
        let config = ChurnConfig {
            groups: 12,
            epochs: 3,
            shards: 4,
            seed: 0x5eed,
            ..ChurnConfig::mixed_suite_bench()
        };
        let report = run_churn(&config);
        assert!(
            report.suites.len() >= 2,
            "expected a mixed fleet, got {:?}",
            report.suites
        );
        assert!(report.suites.iter().any(|s| s.suite == SuiteId::Proposed));
        assert!(report.suites.iter().all(|s| s.energy_mj > 0.0));
        assert!(report.metrics.events_applied > 0);
        assert_eq!(report.metrics.groups_active, 12);
        assert!(report.render().contains("suites:"));
        let again = run_churn(&config);
        assert_eq!(report.key_fingerprint, again.key_fingerprint);
        let mix = |r: &ChurnReport| {
            r.suites
                .iter()
                .map(|s| (s.suite, s.groups, s.rekeys))
                .collect::<Vec<_>>()
        };
        assert_eq!(mix(&report), mix(&again), "suite selection is seeded");
    }

    #[test]
    fn fixed_baseline_policy_churns_entirely_on_that_suite() {
        // A Fixed(BdEcdsa) fleet: every group founds and rekeys through
        // the certificate baseline (full re-runs), end to end.
        let config = ChurnConfig {
            groups: 6,
            epochs: 2,
            suite_policy: SuitePolicy::Fixed(SuiteId::BdEcdsa),
            ..small()
        };
        let report = run_churn(&config);
        assert_eq!(report.suites.len(), 1);
        assert_eq!(report.suites[0].suite, SuiteId::BdEcdsa);
        assert_eq!(report.suites[0].groups, 6);
        assert!(report.metrics.events_applied > 0);
        assert!(report.metrics.rekeys_executed > 0);
        let again = run_churn(&config);
        assert_eq!(report.key_fingerprint, again.key_fingerprint);
    }

    #[test]
    fn crash_recovery_reproduces_the_uninterrupted_fingerprint_across_seeds() {
        // The durability acceptance golden: kill the controller at a
        // seed-derived epoch, recover from snapshot + WAL tail, finish the
        // scenario — the churn fingerprint (XOR-fold of every surviving
        // group key) must be bit-for-bit the uninterrupted run's, across
        // ≥ 3 seeds and therefore ≥ 3 different kill points.
        use egka_service::{MemStore, StoreConfig};
        for seed in [0x5eed_u64, 0xfeed1, 0xabba7] {
            let mut config = small();
            config.seed = seed;
            let baseline = run_churn(&config);
            let kill_epoch = 1 + seed % config.epochs;
            let store = StoreConfig::new(std::sync::Arc::new(MemStore::new())).snapshot_every(2);
            let crashed = run_churn_with_crash(&config, store, kill_epoch);
            assert_eq!(
                crashed.key_fingerprint, baseline.key_fingerprint,
                "seed {seed:#x}, killed at epoch {kill_epoch}"
            );
            assert_eq!(
                crashed.metrics.groups_active,
                baseline.metrics.groups_active
            );
            let rec = crashed.recovery.expect("crash ran");
            assert_eq!(rec.kill_epoch, kill_epoch);
            assert_eq!(rec.groups_recovered, config.groups);
            if kill_epoch >= 3 {
                assert_eq!(rec.snapshot_epoch, Some(2), "compaction cadence is 2");
            }
            assert!(crashed.render().contains("recovery: controller killed"));
        }
    }

    #[test]
    fn crash_recovery_over_the_radio_restores_the_battery_ledger() {
        // Crash-recover a *radio* scenario: the battery ledger (including
        // the weak motes' partial drain, or their deaths) must restore
        // exactly, or the survivors' remaining lifetime — and with it every
        // subsequent death and eviction — would silently diverge from the
        // uninterrupted run.
        use egka_service::{MemStore, StoreConfig};
        let mut config = small();
        config.radio = Some(RadioChurnConfig::sensor_field());
        let baseline = run_churn(&config);
        let store = StoreConfig::new(std::sync::Arc::new(MemStore::new())).snapshot_every(1);
        let crashed = run_churn_with_crash(&config, store, 2);
        assert_eq!(crashed.key_fingerprint, baseline.key_fingerprint);
        let (b, c) = (
            baseline.radio.as_ref().expect("radio summary"),
            crashed.radio.as_ref().expect("radio summary"),
        );
        assert_eq!(b.died, c.died, "battery deaths must replay identically");
        // (Latency quantiles are observability, not state: the recovered
        // process only retains the window since the snapshot — the *keys*
        // and the *ledger* are what must not diverge.)
        assert!(c.total_spent_uj > 0.0);
    }

    fn traced(mut config: ChurnConfig) -> (ChurnConfig, std::sync::Arc<egka_trace::RingSink>) {
        let (tc, ring) = egka_trace::TraceConfig::ring(1 << 20);
        config.trace = Some(tc);
        (config, ring)
    }

    #[test]
    fn tracing_is_observationally_transparent() {
        // Instrumentation draws no randomness and perturbs no seeds: a
        // traced run must reproduce the untraced golden bit for bit.
        let (config, ring) = traced(small());
        let report = run_churn(&config);
        assert_eq!(report.key_fingerprint, 0x6e14_e41f_677b_0a8b);
        assert_eq!(report.metrics.events_applied, 55);
        assert_eq!(report.metrics.rekeys_executed, 36);
        assert!((report.metrics.energy_mj - 41_399.819_52).abs() < 1e-3);
        assert_eq!(
            egka_trace::TraceSink::dropped(&*ring),
            0,
            "ring must not saturate on small()"
        );
        egka_trace::export::validate(&ring.events()).expect("spans balance");
    }

    #[test]
    fn trace_export_is_byte_identical_across_runs() {
        // Same seed + same config ⇒ the *recorded events themselves* are
        // identical, down to the exported Chrome-trace bytes.
        let (config, ring_a) = traced(small());
        run_churn(&config);
        let (config, ring_b) = traced(small());
        run_churn(&config);
        let a = egka_trace::export::chrome_trace_json(&ring_a.events());
        let b = egka_trace::export::chrome_trace_json(&ring_b.events());
        assert!(
            !a.is_empty() && a == b,
            "chrome export must be bytewise stable"
        );
        assert_eq!(
            egka_trace::export::event_fingerprint(&ring_a.events()),
            egka_trace::export::event_fingerprint(&ring_b.events()),
        );
        // A different seed records a different history.
        let mut other = small();
        other.seed ^= 1;
        let (other, ring_c) = traced(other);
        run_churn(&other);
        assert_ne!(
            egka_trace::export::event_fingerprint(&ring_a.events()),
            egka_trace::export::event_fingerprint(&ring_c.events()),
        );
    }

    #[test]
    fn health_plane_reconciles_and_exposition_is_byte_stable() {
        // The health/load plane feeds only deterministic (virtual) values
        // into the registry, so a same-seed rerun renders a byte-identical
        // Prometheus exposition — and the per-shard stats partition the
        // service totals exactly.
        let run = || {
            let (mut config, _ring) = traced(small());
            let registry = std::sync::Arc::new(egka_trace::MetricsRegistry::new());
            config.trace.as_mut().expect("traced").registry =
                Some(std::sync::Arc::clone(&registry));
            let report = run_churn(&config);
            (report, registry.snapshot().prometheus_text())
        };
        let (report, text_a) = run();
        let (_, text_b) = run();
        assert!(
            !text_a.is_empty() && text_a == text_b,
            "exposition must be byte-stable per seed"
        );
        assert!(text_a.contains("# TYPE"), "typed exposition families");
        assert_eq!(report.trace_drops, Some(0));
        assert!(
            report
                .metrics_table
                .as_deref()
                .is_some_and(|t| !t.is_empty()),
            "registry table rides along in the report"
        );
        assert!(report.render().contains("health:"));
        assert_eq!(
            egka_service::ShardStats::reconcile(&report.shards, &report.metrics),
            Ok(())
        );
    }

    #[test]
    fn trace_event_count_fingerprint_golden() {
        // Pins the (name, phase) → count shape of the small() trace across
        // seeds. Any change to what gets instrumented (or to how often the
        // scheduler takes each path) shows up here as a diff to explain —
        // the trace-level analogue of the key-fingerprint golden.
        for (seed, expected) in [
            (0x5eed_u64, 0x0b39_6cea_20c7_6d54_u64),
            (0xfeed1, 0x15b9_1649_ede0_6d86),
            (0xabba7, 0x6c01_5f80_813a_a401),
        ] {
            let mut config = small();
            config.seed = seed;
            let (config, ring) = traced(config);
            run_churn(&config);
            let events = ring.events();
            egka_trace::export::validate(&events).expect("spans balance");
            assert_eq!(
                egka_trace::export::event_fingerprint(&events),
                expected,
                "trace fingerprint drifted for seed {seed:#x}"
            );
        }
    }

    #[test]
    fn crash_recovery_trace_replays_the_appended_lsns() {
        // The recovered controller's `wal.replay` instants must carry
        // exactly the LSNs the pre-crash controller's `wal.append`
        // instants recorded for the replayed tail — the trace-level proof
        // that recovery re-ran the same durable history, not a lookalike.
        use egka_service::{MemStore, StoreConfig};
        use egka_trace::Payload;
        let config = small();
        let kill_epoch = 2;
        let store = StoreConfig::new(std::sync::Arc::new(MemStore::new()));
        let (config, ring) = traced(config);
        let crashed = run_churn_with_crash(&config, store, kill_epoch);
        assert!(crashed.recovery.is_some());
        let events = ring.events();
        let lsns_of = |name: &str| -> Vec<u64> {
            events
                .iter()
                .filter(|e| e.name == name)
                .filter_map(|e| match e.payload {
                    Payload::Lsn { lsn, .. } => Some(lsn),
                    _ => None,
                })
                .collect()
        };
        let appended = lsns_of("wal.append");
        let replayed = lsns_of("wal.replay");
        assert!(!replayed.is_empty(), "recovery must replay a WAL tail");
        // No snapshot was cut, so recovery replays the whole log: the
        // replayed LSN sequence is exactly the pre-crash appended prefix.
        let pre_crash: Vec<u64> = appended
            .iter()
            .copied()
            .take_while(|&l| l <= *replayed.last().unwrap())
            .collect();
        assert_eq!(replayed, pre_crash, "replay must walk the appended LSNs");
        // And the store lane saw the recovered service's appends too.
        assert!(events
            .iter()
            .any(|e| e.pid == egka_trace::STORE_PID && e.name == "store.append"));
    }

    #[test]
    fn byzantine_silence_is_evicted_and_the_group_completes() {
        let mut config = small();
        config.epochs = 8;
        config.eviction = Some(EvictionPolicy::default());
        let config = config.byzantine_silent(1, 2);
        let report = run_churn(&config);
        assert!(report.metrics.members_evicted >= 1, "culprit evicted");
        assert!(report.metrics.blame_certs >= 1, "eviction leaves a cert");
        assert_eq!(
            report.stalled_faulted_groups, 0,
            "the victim group completes over the survivors"
        );
        assert!(report.quarantine.iter().any(|&(m, _, n)| m == 1 && n == 1));
        assert_eq!(
            report.metrics.members_readmitted, 0,
            "a silent member never comes back"
        );
        assert!(report.render().contains("evictions:"));
        let again = run_churn(&config);
        assert_eq!(report.key_fingerprint, again.key_fingerprint);
        assert_eq!(report.quarantine, again.quarantine);
    }

    #[test]
    fn flapping_member_is_readmitted_then_reevicted_with_backoff() {
        let mut config = small();
        config.epochs = 12;
        config.eviction = Some(EvictionPolicy::default());
        let config = config.flapping(5, 4);
        let report = run_churn(&config);
        assert!(
            report.metrics.members_evicted >= 2,
            "down → evict → up → readmit → down → evict again, got {}",
            report.metrics.members_evicted
        );
        assert_eq!(report.metrics.members_readmitted, 1);
        let &(_, until, evictions) = report
            .quarantine
            .iter()
            .find(|&&(m, _, _)| m == 5)
            .expect("flapper is in the penalty box");
        assert_eq!(evictions, 2);
        assert!(
            until > config.epochs + 4,
            "second penalty is backoff-escalated (until e{until})"
        );
        assert_eq!(report.stalled_faulted_groups, 0);
    }

    #[test]
    fn robust_bench_preset_completes_every_faulted_group() {
        // The CI scenario, pinned here so the bench binary cannot drift
        // away from a config where both fault arcs actually fire.
        let report = run_churn(&ChurnConfig::robust_bench());
        assert!(report.metrics.members_evicted >= 2);
        assert!(report.metrics.blame_certs >= 2);
        assert!(report.metrics.members_readmitted >= 1);
        assert_eq!(report.stalled_faulted_groups, 0);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(6))]
        #[test]
        fn crash_recovery_replays_evictions_bit_for_bit(kill_epoch in 1u64..=8) {
            // Kill the controller at a random epoch of a faulted, durable
            // run: the recovered run's keys, quarantine cells and stall
            // ledger must be bit-for-bit the uninterrupted run's — the
            // WAL'd blame certificates replay the evictions exactly.
            use egka_service::{MemStore, StoreConfig};
            use std::sync::OnceLock;
            static BASELINE: OnceLock<ChurnReport> = OnceLock::new();
            let config = || {
                let mut c = small();
                c.epochs = 8;
                c.eviction = Some(EvictionPolicy::default());
                c.byzantine_silent(1, 2).flapping(5, 4)
            };
            let baseline = BASELINE.get_or_init(|| run_churn(&config()));
            let store = StoreConfig::new(std::sync::Arc::new(MemStore::new())).snapshot_every(2);
            let crashed = run_churn_with_crash(&config(), store, kill_epoch);
            proptest::prop_assert_eq!(crashed.key_fingerprint, baseline.key_fingerprint);
            proptest::prop_assert_eq!(&crashed.quarantine, &baseline.quarantine);
            proptest::prop_assert_eq!(&crashed.member_stalls, &baseline.member_stalls);
            proptest::prop_assert_eq!(crashed.metrics.groups_active, baseline.metrics.groups_active);
            proptest::prop_assert_eq!(
                crashed.stalled_faulted_groups,
                baseline.stalled_faulted_groups
            );
        }
    }

    #[test]
    fn resharding_mid_churn_reproduces_the_static_pool_golden() {
        // Keys are placement-independent: growing the pool live, with
        // queued Poisson traffic and the rebalancer shuffling hot groups,
        // must land on the exact static-pool golden — fingerprint,
        // counters, priced energy — with zero stalled epochs.
        let mut config = small();
        config.reshard = Some(ReshardPlan {
            target_shards: 9,
            from_epoch: 2,
            per_epoch: 3,
            rebalancer: Some(Rebalancer::default()),
        });
        let report = run_churn(&config);
        assert_eq!(report.key_fingerprint, 0x6e14_e41f_677b_0a8b);
        assert_eq!(report.metrics.events_applied, 55);
        assert_eq!(report.metrics.rekeys_executed, 36);
        assert!((report.metrics.energy_mj - 41_399.819_52).abs() < 1e-3);
        assert_eq!(
            report.metrics.groups_stalled, 0,
            "live handoffs stall nothing"
        );
        assert_eq!(report.shards.len(), 9, "the pool grew to target");
        assert_eq!(report.metrics.shards_added, 5);
        assert!(report.metrics.groups_moved > 0, "growth relocated movers");
    }

    #[test]
    fn reshard_bench_preset_grows_4_to_16_without_stalls() {
        // The CI scenario, pinned here so the bench binary cannot drift:
        // 4 → 16 shards mid-churn, zero stalled epochs, deterministic
        // fingerprint, and the per-shard stats still partition the
        // service totals exactly after all that movement.
        let config = ChurnConfig {
            groups: 60, // trimmed for the unit-test tier; same shape
            ..ChurnConfig::reshard_bench()
        };
        let report = run_churn(&config);
        assert_eq!(report.shards.len(), 16);
        assert_eq!(report.metrics.shards_added, 12);
        assert_eq!(report.metrics.groups_stalled, 0);
        assert_eq!(
            egka_service::ShardStats::reconcile(&report.shards, &report.metrics),
            Ok(())
        );
        let again = run_churn(&config);
        assert_eq!(report.key_fingerprint, again.key_fingerprint);
        assert_eq!(report.metrics.groups_moved, again.metrics.groups_moved);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(6))]
        #[test]
        fn add_remove_move_preserves_the_partition_invariant(seed in 0u64..1 << 48) {
            // Random add/remove/move sequences interleaved with random
            // churn: every group must stay resident on exactly the shard
            // the directory names, and the per-shard stats must keep
            // summing exactly to the service totals.
            use egka_core::{Pkg, SecurityProfile, UserId};
            use rand::SeedableRng;
            let mut rng = ChaChaRng::seed_from_u64(seed ^ 0x9e5a);
            let mut setup = ChaChaRng::seed_from_u64(0x51ed);
            let pkg = Arc::new(Pkg::setup(&mut setup, SecurityProfile::Toy));
            let mut svc = KeyService::builder().shards(2).seed(seed).build(pkg);
            let mut next_user = 0u32;
            for g in 0..10u64 {
                let members: Vec<UserId> = (next_user..next_user + 4).map(UserId).collect();
                next_user += 4;
                svc.create_group(g, &members).expect("create group");
            }
            for _ in 0..24 {
                match rng.next_u64() % 5 {
                    0 => {
                        if svc.shard_count() < 12 {
                            svc.add_shard();
                        }
                    }
                    1 => {
                        // Removal may legitimately refuse (busy / last);
                        // refusal must leave the pool untouched.
                        let before = svc.shard_count();
                        if svc.remove_shard(before - 1).is_err() {
                            proptest::prop_assert_eq!(svc.shard_count(), before);
                        }
                    }
                    2 => {
                        let gid = rng.next_u64() % 10;
                        let to = (rng.next_u64() as usize) % svc.shard_count();
                        svc.move_group(gid, to).expect("live group, live shard");
                    }
                    3 => {
                        let gid = rng.next_u64() % 10;
                        let u = UserId(next_user);
                        next_user += 1;
                        svc.submit(gid, MembershipEvent::Join(u)).expect("join");
                    }
                    _ => {
                        svc.tick();
                    }
                }
                // Every group stays reachable through the directory at
                // every step (lookups go through `shard_of`, so a state
                // left behind — or duplicated — on the wrong shard would
                // surface here or in the gauge sum below).
                for g in 0..10u64 {
                    proptest::prop_assert!(svc.shard_of(g) < svc.shard_count());
                    proptest::prop_assert!(svc.group_key(g).is_some(), "group {} alive", g);
                }
            }
            svc.tick();
            let stats = svc.shard_stats();
            proptest::prop_assert_eq!(stats.len(), svc.shard_count());
            let partition = egka_service::ShardStats::reconcile(&stats, svc.metrics());
            proptest::prop_assert_eq!(partition, Ok(()));
        }

        #[test]
        fn crash_mid_handoff_recovers_placement_and_keys_exactly(kill_epoch in 2u64..=4) {
            // Kill the controller in the thick of the resharding window
            // (shards were added and groups handed off this epoch; the
            // records are in the WAL, the epoch commit is not). Recovery
            // must land every group in exactly one shard, at the exact
            // placement of the uninterrupted run, with bit-identical keys.
            use egka_service::{MemStore, StoreConfig};
            use std::sync::OnceLock;
            static BASELINE: OnceLock<ChurnReport> = OnceLock::new();
            let config = || {
                let mut c = small();
                c.shards = 2;
                c.epochs = 4;
                c.reshard = Some(ReshardPlan {
                    target_shards: 7,
                    from_epoch: 2,
                    per_epoch: 2,
                    rebalancer: Some(Rebalancer {
                        max_pending: 1,
                        cooldown_epochs: 1,
                        max_moves_per_epoch: 2,
                    }),
                });
                c
            };
            let baseline = BASELINE.get_or_init(|| run_churn(&config()));
            let store = StoreConfig::new(std::sync::Arc::new(MemStore::new())).snapshot_every(2);
            let crashed = run_churn_with_crash(&config(), store, kill_epoch);
            proptest::prop_assert_eq!(crashed.key_fingerprint, baseline.key_fingerprint);
            proptest::prop_assert_eq!(crashed.shards.len(), baseline.shards.len());
            proptest::prop_assert_eq!(crashed.metrics.groups_active, baseline.metrics.groups_active);
            let place = |r: &ChurnReport| -> Vec<u64> {
                r.shards.iter().map(|s| s.groups).collect()
            };
            proptest::prop_assert_eq!(place(&crashed), place(baseline));
            let groups: u64 = crashed.shards.iter().map(|s| s.groups).sum();
            proptest::prop_assert_eq!(groups, crashed.metrics.groups_active);
        }
    }

    #[test]
    fn poisson_mean_is_plausible() {
        let mut rng = ChaChaRng::seed_from_u64(9);
        let n = 4000;
        let total: u64 = (0..n).map(|_| poisson(&mut rng, 0.7)).sum();
        let mean = total as f64 / n as f64;
        assert!((0.55..0.85).contains(&mean), "mean {mean} far from λ=0.7");
    }
}
