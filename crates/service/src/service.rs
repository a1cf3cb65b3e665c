//! The sharded, epoch-batched key-management service.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::Instant;

use egka_bigint::Ubig;
use egka_core::suite::{suite, StepCtx, SuiteId, SuiteOutcome};
use egka_core::{par, Faults, GroupSession, Pkg, Pump, RadioSpec, UserId};
use egka_energy::OpCounts;
use egka_medium::{BatteryBank, BatteryStatus, RadioProfile};
use egka_robust::{BlameCert, EvictionPolicy, MemberEvidence, Quarantine};
use egka_sig::blame::{BlamePublic, CoordinatorKey};
use egka_store::{wal_stream_records, StoreError, TracedStore};
use egka_trace::{
    group_tid, labeled, Event, Payload, Phase, StallCause, StepTrace, TraceConfig, Tracer,
    CONTROL_TID, COORD_PID, EPOCH_NS, SWEEP_NS,
};

use crate::event::{GroupId, MembershipEvent, RejectReason, ServiceError};
use crate::hashing::ShardDirectory;
use crate::health::{
    HealthReport, PhaseProfile, ShardStats, StallEvent, StallLedger, STALLED_AFTER_EPOCHS,
};
use crate::metrics::{Counters, EpochReport, ServiceMetrics, SuiteUsage};
use crate::persist::{
    decode_group_state, decode_snapshot, encode_group_state, encode_snapshot, RecoveryReport,
    Sealer, SnapshotState, StoreConfig, WalRecord,
};
use crate::plan::{CostModel, SuitePolicy};
use crate::shard::{mix, EpochCtx, GroupState, RadioEpoch, Shard};

/// Runs every rekey over the virtual-time radio instead of the instant
/// medium: per-link delay, airtime contention at the profile's data rate,
/// and battery drain per tx/rx bit and compute op. Rekey latencies are
/// then reported in virtual radio milliseconds
/// ([`EpochReport::latency_quantiles_virtual`]) and a member whose budget
/// drains to zero is powered off mid-protocol and auto-detached.
#[derive(Clone, Debug)]
pub struct RadioConfig {
    /// Hardware/channel profile (transceiver, CPU, link delay, loss).
    pub profile: RadioProfile,
    /// Battery budget installed per member on first contact, microjoules.
    /// `f64::INFINITY` (the [`RadioConfig::new`] default) means mains
    /// power — drain is accounted but nobody dies. Override per member
    /// with [`KeyService::set_battery`].
    pub default_battery_uj: f64,
}

impl RadioConfig {
    /// Mains-powered nodes on `profile`.
    pub fn new(profile: RadioProfile) -> Self {
        RadioConfig {
            profile,
            default_battery_uj: f64::INFINITY,
        }
    }
}

/// Salt mixed into group ids for [`ShardDirectory`] placement (kept
/// identical to the pre-directory `jump_hash` salt so existing
/// deployments' placements — and goldens — are unchanged).
const PLACEMENT_SALT: u64 = 0x051a_6d0f_5ead;

/// Epoch deltas, each tagged with the index of the shard it is billed to.
type ShardDeltas = Vec<(usize, EpochReport)>;

/// Load-driven shard rebalancing policy ([`ServiceBuilder::rebalancer`]).
///
/// At the top of every [`KeyService::tick`] the rebalancer compares
/// per-shard **pending-event** counts (the one load signal that is both
/// observable *and* exactly reconstructible from the WAL, so recovery
/// replays identical decisions) and live-moves the hottest groups off any
/// shard above `max_pending` onto the coldest shard. `cooldown_epochs` is
/// the hysteresis: a group that just moved is immune for that many
/// epochs, so two near-balanced shards cannot ping-pong one group
/// forever.
#[derive(Clone, Copy, Debug)]
pub struct Rebalancer {
    /// A shard whose pending-event count exceeds this shed load.
    pub max_pending: u64,
    /// Epochs a moved group is immune from further rebalancer moves.
    pub cooldown_epochs: u64,
    /// Upper bound on rebalancer moves per tick.
    pub max_moves_per_epoch: usize,
}

impl Default for Rebalancer {
    fn default() -> Self {
        Rebalancer {
            max_pending: 16,
            cooldown_epochs: 4,
            max_moves_per_epoch: 4,
        }
    }
}

/// Internal, fully-resolved configuration (assembled by
/// [`ServiceBuilder`]).
#[derive(Clone, Debug)]
pub(crate) struct Config {
    pub shards: usize,
    pub seed: u64,
    pub cost: CostModel,
    pub step_retries: u32,
    pub radio: Option<RadioConfig>,
    pub policy: SuitePolicy,
    pub loss: f64,
    pub store: Option<StoreConfig>,
    pub trace: Tracer,
    pub eviction: Option<EvictionPolicy>,
    pub rebalancer: Option<Rebalancer>,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            shards: 8,
            seed: 0xe96a,
            cost: CostModel::default(),
            step_retries: 2,
            radio: None,
            policy: SuitePolicy::default(),
            loss: 0.0,
            store: None,
            trace: Tracer::disabled(),
            eviction: None,
            rebalancer: None,
        }
    }
}

/// Fluent construction façade for [`KeyService`] — the one place service
/// knobs are set, so examples, benches and drivers cannot drift apart on
/// ad-hoc field-poking.
///
/// ```
/// use std::sync::Arc;
/// use egka_core::{Pkg, SecurityProfile, UserId};
/// use egka_core::suite::SuiteId;
/// use egka_hash::ChaChaRng;
/// use egka_service::{KeyService, SuitePolicy};
/// use rand::SeedableRng;
///
/// let mut rng = ChaChaRng::seed_from_u64(7);
/// let pkg = Arc::new(Pkg::setup(&mut rng, SecurityProfile::Toy));
/// let mut svc = KeyService::builder()
///     .shards(4)
///     .seed(0xfeed)
///     .suite_policy(SuitePolicy::Fixed(SuiteId::Proposed))
///     .build(pkg);
/// svc.create_group(1, &[UserId(0), UserId(1), UserId(2)]).unwrap();
/// assert_eq!(svc.suite_of(1), Some(SuiteId::Proposed));
/// ```
#[derive(Clone, Debug, Default)]
pub struct ServiceBuilder {
    cfg: Config,
}

impl ServiceBuilder {
    /// *Initial* number of worker shards groups are hashed across
    /// (default 8). The pool can grow and shrink at runtime via
    /// [`KeyService::add_shard`] / [`KeyService::remove_shard`]; this
    /// value stays pinned in the WAL config header and snapshot guard, so
    /// recovery always starts from the same topology and replays the
    /// resize records to reach the live one.
    ///
    /// # Panics
    /// Panics if `shards` is zero.
    pub fn shards(mut self, shards: usize) -> Self {
        assert!(shards > 0, "need at least one shard");
        self.cfg.shards = shards;
        self
    }

    /// Master seed: with the same seed and the same call sequence, every
    /// key and every counter the service produces is identical.
    pub fn seed(mut self, seed: u64) -> Self {
        self.cfg.seed = seed;
        self
    }

    /// Hardware model the coalescing planner optimizes for, and whether
    /// Joins run in composable mode.
    pub fn cost(mut self, cost: CostModel) -> Self {
        self.cfg.cost = cost;
        self
    }

    /// How many times a loss-stalled rekey step is retried with fresh
    /// randomness before its group is timed out for the epoch (default 2).
    pub fn step_retries(mut self, retries: u32) -> Self {
        self.cfg.step_retries = retries;
        self
    }

    /// Runs every rekey over the virtual-time radio medium.
    pub fn radio(mut self, radio: RadioConfig) -> Self {
        self.cfg.radio = Some(radio);
        self
    }

    /// How groups pick their GKA suite (default:
    /// `SuitePolicy::Fixed(SuiteId::Proposed)`).
    pub fn suite_policy(mut self, policy: SuitePolicy) -> Self {
        self.cfg.policy = policy;
        self
    }

    /// Initial per-delivery loss probability (same contract as
    /// [`KeyService::set_loss`], which can still change it at runtime).
    ///
    /// # Panics
    /// Panics unless `0.0 <= prob < 1.0`.
    pub fn loss(mut self, prob: f64) -> Self {
        assert!((0.0..1.0).contains(&prob), "loss probability out of range");
        self.cfg.loss = prob;
        self
    }

    /// Attaches a durable [`egka_store::Store`]: every state-changing call
    /// is write-ahead logged, every applied epoch appends its commit record
    /// before the [`EpochReport`] is returned, and a compacting snapshot is
    /// installed on the configured cadence. A submit is written without a
    /// barrier and made durable by the next commit, so an epoch costs one
    /// fsync: a power loss can drop un-ticked submits, a process crash
    /// drops nothing. A service built *without* a store behaves exactly
    /// as before — persistence is a pure observer of the deterministic
    /// state machine.
    pub fn store(mut self, store: StoreConfig) -> Self {
        self.cfg.store = Some(store);
        self
    }

    /// Arms the identifiable-abort eviction engine (`egka-robust`): once
    /// a group's stall streak crosses `policy.streak_threshold`, the next
    /// tick synthesizes Leave events evicting the ledger's culprits so
    /// the epoch completes over the survivors, appends a signed
    /// [`BlameCert`] to the WAL (when a store is configured), and books
    /// the evicted members into an escalating-backoff quarantine that a
    /// post-penalty Join clears. Without this call — the default — the
    /// service never evicts anybody and behaves exactly as before.
    pub fn eviction(mut self, policy: EvictionPolicy) -> Self {
        self.cfg.eviction = Some(policy);
        self
    }

    /// Arms the load-driven [`Rebalancer`]: at the top of every tick,
    /// groups are live-moved off shards whose pending-event backlog
    /// exceeds the policy threshold (see the [`Rebalancer`] docs for the
    /// determinism and hysteresis contract). Without this call — the
    /// default — groups move only on explicit
    /// [`KeyService::move_group`] / pool-resize calls.
    pub fn rebalancer(mut self, policy: Rebalancer) -> Self {
        self.cfg.rebalancer = Some(policy);
        self
    }

    /// Records structured trace events (and optional metrics) for every
    /// epoch, plan, protocol step, round, retransmission, battery death
    /// and WAL append, all on the **virtual clock** — so the export is
    /// deterministic per seed. Instrumentation is purely observational:
    /// it draws no randomness and changes no keys, counters or WAL bytes.
    /// Without this call tracing is a no-op.
    pub fn trace(mut self, trace: TraceConfig) -> Self {
        self.cfg.trace = Tracer::from(trace);
        self
    }

    /// Builds the service on `pkg`'s parameters.
    pub fn build(self, pkg: Arc<Pkg>) -> KeyService {
        let mut cfg = self.cfg;
        // Under tracing, the durable backend reports its append /
        // snapshot-install spans on the dedicated store lane.
        if cfg.trace.is_enabled() {
            if let Some(sc) = &mut cfg.store {
                sc.backend = Arc::new(TracedStore::new(Arc::clone(&sc.backend), cfg.trace.clone()));
            }
        }
        let shards = (0..cfg.shards).map(|_| Shard::default()).collect();
        let health_shards = (0..cfg.shards)
            .map(|shard| ShardStats {
                shard,
                ..ShardStats::default()
            })
            .collect();
        let bank = cfg
            .radio
            .as_ref()
            .map(|r| BatteryBank::new(r.default_battery_uj));
        // The blame-signing key derives from the master seed, so a
        // recovered coordinator re-signs bit-identical certificates.
        let coordinator = cfg
            .eviction
            .map(|_| CoordinatorKey::from_seed(mix(cfg.seed, 0xb1a4e)));
        let directory = ShardDirectory::new(cfg.shards as u32, PLACEMENT_SALT);
        KeyService {
            pkg,
            loss: cfg.loss,
            config: cfg,
            shards,
            health_shards,
            directory,
            last_moved: BTreeMap::new(),
            ledger: StallLedger::default(),
            phase_totals: PhaseProfile::default(),
            epoch: 0,
            metrics: ServiceMetrics::default(),
            detached: BTreeSet::new(),
            bank,
            known_dead: BTreeSet::new(),
            next_lsn: 1,
            replaying: false,
            coord_ns: 0,
            quarantine: Quarantine::default(),
            coordinator,
            blame_certs: Vec::new(),
            replay_certs: Vec::new(),
            replay_fault: None,
        }
    }

    /// Rebuilds a service from this builder's [`ServiceBuilder::store`]:
    /// restores the latest snapshot (unsealing session-key material), then
    /// replays the WAL tail through the ordinary entry points — re-running
    /// each committed epoch's rekeys deterministically — until the
    /// reconstructed shards are bit-for-bit the pre-crash state.
    ///
    /// The builder must carry the **same configuration** (seed, shards,
    /// policy, radio, cost) the original service ran with; the snapshot
    /// pins seed and shard count and a mismatch is reported as
    /// [`StoreError::Corrupt`] rather than silently diverging. Commands
    /// whose commit never reached the log (a torn tail) are gone — exactly
    /// the write-ahead contract: an unacknowledged epoch never happened.
    ///
    /// # Panics
    /// Panics if no store was configured on the builder.
    pub fn recover(self, pkg: Arc<Pkg>) -> Result<(KeyService, RecoveryReport), StoreError> {
        let store = self
            .cfg
            .store
            .clone()
            .expect("ServiceBuilder::recover needs ServiceBuilder::store");
        let mut svc = self.build(pkg);
        let mut report = RecoveryReport::default();
        svc.replaying = true;
        if let Some(snap) = store.backend.snapshot_bytes()? {
            let restored = decode_snapshot(&snap, &store, &svc.pkg)?;
            if restored.shards != svc.config.shards as u32 || restored.seed != svc.config.seed {
                svc.replaying = false;
                return Err(StoreError::Corrupt {
                    what: "snapshot was cut under a different service configuration",
                    offset: 0,
                });
            }
            svc.epoch = restored.epoch;
            svc.loss = restored.loss;
            // Install the shard directory (live pool size + pinned
            // placements) *before* placing any group: `shard_of` routes
            // through it, so restoring groups first would scatter them
            // across the initial topology instead of the snapshotted one.
            svc.directory = ShardDirectory::new(restored.dir_shards, PLACEMENT_SALT);
            svc.directory.set_overrides(restored.overrides.into_iter());
            svc.last_moved = restored.last_moved.into_iter().collect();
            svc.resize_pool(restored.dir_shards as usize);
            svc.detached = restored.detached.into_iter().collect();
            svc.known_dead = restored.known_dead.into_iter().collect();
            match &svc.bank {
                Some(bank) => {
                    for (user, capacity_uj, spent_uj) in restored.batteries {
                        bank.set_capacity(user, capacity_uj);
                        let _ = bank.debit(user, spent_uj);
                    }
                }
                // Dropping a drained battery ledger would resurrect dead
                // motes and silently diverge from the acknowledged state —
                // the same class of mismatch as a wrong seed.
                None if !restored.batteries.is_empty() => {
                    svc.replaying = false;
                    return Err(StoreError::Corrupt {
                        what:
                            "snapshot carries a battery ledger but the builder has no radio config",
                        offset: 0,
                    });
                }
                None => {}
            }
            for (gid, state) in restored.groups {
                let shard = svc.shard_of(gid);
                svc.shards[shard].groups.insert(gid, state);
            }
            for (gid, events) in restored.pending {
                let shard = svc.shard_of(gid);
                svc.shards[shard].pending.insert(gid, events);
            }
            svc.ledger = StallLedger::restore(
                restored
                    .stall_groups
                    .into_iter()
                    .map(|(gid, consecutive, cumulative, last_cause)| {
                        (
                            gid,
                            crate::health::MemberStall {
                                consecutive,
                                cumulative,
                                last_cause,
                            },
                        )
                    })
                    .collect(),
                restored
                    .stall_members
                    .into_iter()
                    .map(|(gid, member, consecutive, cumulative, last_cause)| {
                        crate::health::StallRecord {
                            group: gid,
                            member: UserId(member),
                            stall: crate::health::MemberStall {
                                consecutive,
                                cumulative,
                                last_cause,
                            },
                        }
                    })
                    .collect(),
            );
            svc.quarantine = Quarantine::from_rows(&restored.quarantine);
            svc.blame_certs = restored
                .blame_certs
                .iter()
                .map(|bytes| {
                    BlameCert::decode(bytes).ok_or(StoreError::Corrupt {
                        what: "snapshot blame certificate malformed",
                        offset: 0,
                    })
                })
                .collect::<Result<_, _>>()?;
            svc.metrics.groups_active = svc.groups_active() as u64;
            svc.next_lsn = restored.next_lsn;
            report.snapshot_epoch = Some(restored.epoch);
        }
        let watermark = svc.next_lsn;
        // The service writes one log (stream 0); stores from its earlier
        // layout also carry stream k+1 for shard k's group-addressed
        // records. Each stream is an independent clean prefix and the
        // global command order is the LSN order, so decode every stream
        // and merge-sort by LSN before replaying.
        let mut tail: Vec<(u64, Vec<u8>, WalRecord)> = Vec::new();
        for stream in store.backend.wal_streams()? {
            for payload in wal_stream_records(store.backend.as_ref(), stream)? {
                let (lsn, record) =
                    WalRecord::decode(&payload).map_err(|_| StoreError::Corrupt {
                        what: "wal record malformed",
                        offset: 0,
                    })?;
                if lsn < watermark {
                    // Tail that predates the snapshot (the file backend's
                    // crash window between snapshot install and
                    // truncation): already folded in, skip.
                    continue;
                }
                tail.push((lsn, payload, record));
            }
        }
        tail.sort_by_key(|&(lsn, _, _)| lsn);
        for (lsn, payload, record) in tail {
            if svc.trace_on() {
                let ts = svc.coord_ts();
                svc.config.trace.emit(
                    Event::new(Phase::Instant, ts, COORD_PID, CONTROL_TID, "wal.replay").with(
                        Payload::Lsn {
                            lsn,
                            bytes: payload.len() as u64,
                        },
                    ),
                );
            }
            svc.apply_replayed(record)?;
            svc.next_lsn = lsn + 1;
            report.records_replayed += 1;
        }
        report.epochs_replayed = svc.metrics.epochs;
        report.groups_recovered = svc.groups_active() as u64;
        // An Evict record whose epoch commit never reached the log is a
        // torn tail: the eviction never happened (write-ahead contract)
        // and the resumed service will re-derive and re-log it.
        svc.replay_certs.clear();
        svc.replaying = false;
        Ok((svc, report))
    }
}

/// A multi-group key-management service over the paper's protocols.
///
/// Owns many concurrent [`GroupSession`]s, hashed across single-threaded
/// worker shards, and drives them through their lifecycle with
/// **epoch-batched rekeying**: membership events queue per group and each
/// [`KeyService::tick`] collapses every queue into the minimal sequence of
/// §7 dynamics (see [`crate::plan`]).
pub struct KeyService {
    pkg: Arc<Pkg>,
    config: Config,
    shards: Vec<Shard>,
    /// Per-shard cumulative load/outcome counters — observability only,
    /// never persisted; recovery re-accumulates them over the replayed
    /// WAL tail.
    health_shards: Vec<ShardStats>,
    /// The group→shard map: jump-hash placement plus handoff overrides.
    /// Snapshotted, and reshaped by replayed resize/move records, so
    /// recovery rebuilds placement bit-for-bit.
    directory: ShardDirectory,
    /// Epoch each group last moved at — the rebalancer's hysteresis
    /// stamps. Snapshotted alongside the directory.
    last_moved: BTreeMap<GroupId, u64>,
    /// Per-member stall attribution (see [`StallLedger`]).
    ledger: StallLedger,
    /// Where tick time has gone, cumulatively, across the service's life.
    phase_totals: PhaseProfile,
    epoch: u64,
    metrics: ServiceMetrics,
    /// Per-delivery loss probability injected into every rekey step's
    /// medium (0.0 = reliable).
    loss: f64,
    /// Members currently powered off: any group whose epoch needs one of
    /// them stalls (and only that group — scheduler liveness).
    detached: BTreeSet<UserId>,
    /// Battery budgets under a radio config (`None` off-radio). Shared by
    /// every epoch's protocol executions, so drain accumulates for the
    /// life of the service.
    bank: Option<BatteryBank>,
    /// Battery deaths already folded into `detached` / `nodes_died`.
    known_dead: BTreeSet<UserId>,
    /// Log sequence number of the next WAL record (monotone across
    /// compaction, so a stale post-snapshot tail replays exactly once).
    next_lsn: u64,
    /// True while `recover` replays the log: replayed commands must not be
    /// re-appended, and ticks must not cut snapshots.
    replaying: bool,
    /// The coordinator's position on its trace lanes (virtual ns): jumps
    /// to each epoch's slot and ticks one `SWEEP_NS` per coordinator-side
    /// event between slots. Only advanced under tracing.
    coord_ns: u64,
    /// The eviction penalty box (always empty without an armed
    /// [`ServiceBuilder::eviction`] policy). Snapshotted with the ledger
    /// so recovery re-derives identical readmission decisions.
    quarantine: Quarantine,
    /// The blame-signing key, derived from the master seed when an
    /// eviction policy is armed.
    coordinator: Option<CoordinatorKey>,
    /// Every blame certificate this service has signed (or re-derived
    /// during replay), in eviction order.
    blame_certs: Vec<BlameCert>,
    /// Certificates read from the WAL tail during replay, awaiting the
    /// replayed tick that must re-derive them bit for bit.
    replay_certs: Vec<BlameCert>,
    /// A divergence detected inside a replayed tick (the tick itself
    /// cannot error); surfaced as corruption at the epoch-commit record.
    replay_fault: Option<&'static str>,
}

impl KeyService {
    /// Starts the fluent construction façade; see [`ServiceBuilder`].
    pub fn builder() -> ServiceBuilder {
        ServiceBuilder::default()
    }

    fn trace_on(&self) -> bool {
        self.config.trace.is_enabled()
    }

    /// Advances the coordinator's lane clock by one sweep and returns it —
    /// every coordinator-side event gets a fresh, strictly monotone
    /// virtual timestamp.
    fn coord_ts(&mut self) -> u64 {
        self.coord_ns += SWEEP_NS;
        self.coord_ns
    }

    /// Appends one command to the write-ahead log, unless none is
    /// configured or the command is itself being replayed by `recover`.
    ///
    /// Durability failures are **fatal by design** (fail-stop): a service
    /// that acknowledged state it could not log would break the recovery
    /// contract, so an append error panics rather than limping on.
    fn log(&mut self, record: WalRecord) {
        if self.replaying {
            return;
        }
        if self.config.store.is_none() {
            return;
        }
        // The very first record of a fresh log is a config header, so that
        // a log-only recovery (no snapshot cut yet) validates seed and
        // shard count exactly like the snapshot path does.
        if self.next_lsn == 1 && !matches!(record, WalRecord::ConfigHeader { .. }) {
            self.log(WalRecord::ConfigHeader {
                shards: self.config.shards as u32,
                seed: self.config.seed,
            });
        }
        // Group-addressed records are charged to their shard's WAL-byte
        // ledger; coordinator-wide records (epoch commits, config, fault
        // toggles, resize/move records) stay unattributed. Every record
        // goes to the one log.
        let byte_shard = match &record {
            WalRecord::CreateGroup { gid, .. } | WalRecord::Submit { gid, .. } => {
                Some(self.shard_of(*gid))
            }
            _ => None,
        };
        let store = self.config.store.as_ref().expect("checked above");
        let lsn = self.next_lsn;
        self.next_lsn += 1;
        let encoded = record.encode(lsn);
        // Group commit: nothing acknowledges a submit before the tick
        // that commits it, so a submit is only written, and the next
        // durable append (at the latest, its epoch's commit) syncs it with
        // everything else before it. A process crash still loses nothing.
        let written = if matches!(record, WalRecord::Submit { .. }) {
            store.backend.append_unsynced(&encoded)
        } else {
            store.backend.append(&encoded)
        };
        written.expect("write-ahead log append must not fail (fail-stop durability)");
        if let Some(s) = byte_shard {
            self.health_shards[s].wal_bytes += encoded.len() as u64;
        }
        self.metrics.wal_appends += 1;
        self.metrics.store_syncs = store.backend.sync_count();
        if self.trace_on() {
            let ts = self.coord_ts();
            self.config.trace.emit(
                Event::new(Phase::Instant, ts, COORD_PID, CONTROL_TID, "wal.append").with(
                    Payload::Lsn {
                        lsn,
                        bytes: encoded.len() as u64,
                    },
                ),
            );
            if let Some(reg) = self.config.trace.registry() {
                reg.add("wal_appends", 1);
            }
        }
    }

    /// Re-applies one replayed WAL command through the ordinary entry
    /// points. A command the live service would reject describes a history
    /// that cannot have happened — typed corruption, not a panic.
    fn apply_replayed(&mut self, record: WalRecord) -> Result<(), StoreError> {
        let rejected = |what| StoreError::Corrupt { what, offset: 0 };
        match record {
            WalRecord::ConfigHeader { shards, seed } => {
                if shards != self.config.shards as u32 || seed != self.config.seed {
                    return Err(rejected(
                        "wal was written under a different service configuration",
                    ));
                }
                Ok(())
            }
            WalRecord::CreateGroup { gid, members } => self
                .create_group(gid, &members)
                .map_err(|_| rejected("replayed create_group was rejected")),
            WalRecord::Submit { gid, event } => self
                .submit(gid, event)
                .map_err(|_| rejected("replayed submit was rejected")),
            WalRecord::Detach(user) => {
                self.detach_member(user);
                Ok(())
            }
            WalRecord::Attach(user) => {
                self.attach_member(user);
                Ok(())
            }
            WalRecord::SetBattery { user, capacity_uj } => {
                // set_battery is a silent no-op off-radio, but a *logged*
                // battery install proves the original service had a bank —
                // dropping the ledger here would diverge silently, exactly
                // like the snapshot-path mismatch.
                if self.bank.is_none() {
                    return Err(rejected(
                        "wal has a battery install but the builder has no radio config",
                    ));
                }
                self.set_battery(user, capacity_uj);
                Ok(())
            }
            WalRecord::SetLoss(prob) => {
                if !(0.0..1.0).contains(&prob) {
                    return Err(rejected("replayed loss probability out of range"));
                }
                self.set_loss(prob);
                Ok(())
            }
            WalRecord::EpochCommit { epoch } => {
                let _ = self.tick();
                if self.epoch != epoch {
                    return Err(rejected("replayed epoch commit out of sequence"));
                }
                if let Some(what) = self.replay_fault.take() {
                    return Err(rejected(what));
                }
                // Anything the logged epoch evicted that the replayed
                // tick did not re-derive is divergence.
                if !self.replay_certs.is_empty() {
                    return Err(rejected(
                        "logged eviction was not re-derived by the replayed epoch",
                    ));
                }
                Ok(())
            }
            WalRecord::Evict { cert } => {
                let Some(coordinator) = &self.coordinator else {
                    return Err(rejected(
                        "wal has an eviction but the builder has no eviction policy",
                    ));
                };
                let cert = BlameCert::decode(&cert)
                    .ok_or_else(|| rejected("logged blame certificate malformed"))?;
                if !cert.verify(&coordinator.public()) {
                    return Err(rejected(
                        "logged blame certificate failed signature verification",
                    ));
                }
                self.replay_certs.push(cert);
                Ok(())
            }
            WalRecord::AddShard { shards } => {
                if shards as usize != self.shards.len() + 1 {
                    return Err(rejected("replayed shard add out of sequence"));
                }
                self.add_shard();
                Ok(())
            }
            WalRecord::RemoveShard { shards } => {
                if shards as usize + 1 != self.shards.len() {
                    return Err(rejected("replayed shard removal out of sequence"));
                }
                self.remove_shard(self.shards.len() - 1)
                    .map(|_| ())
                    .map_err(|_| rejected("replayed shard removal was rejected"))
            }
            WalRecord::MoveGroup { gid, to } => self
                .move_group(gid, to as usize)
                .map_err(|_| rejected("replayed group move was rejected")),
        }
    }

    /// The shard `gid` lives on right now: its [`ShardDirectory`] pin if
    /// a handoff moved it, else its jump-hash home — so growing the pool
    /// relocates only `≈ 1/(N+1)` of the groups (see [`crate::hashing`]).
    pub fn shard_of(&self, gid: GroupId) -> usize {
        self.directory.locate(gid) as usize
    }

    /// Live shard count (grows and shrinks with
    /// [`KeyService::add_shard`] / [`KeyService::remove_shard`]).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Grows the pool by one shard and live-moves every unpinned group
    /// whose jump-hash home changed onto it — by the jump-hash contract,
    /// `≈ 1/(N+1)` of the groups, each handed off through the sealed
    /// snapshot codec (state sealed, installed on the target shard,
    /// directory flipped; no replay, no stalled epochs). Pending queues
    /// travel with their groups. Returns the new shard's index.
    pub fn add_shard(&mut self) -> usize {
        let new_count = self.shards.len() + 1;
        self.resize_pool(new_count);
        let resident: Vec<GroupId> = self.group_ids();
        let moved = self.directory.grow(new_count as u32, resident.into_iter());
        for &(gid, to) in &moved {
            // Movers were resident on their *old* jump-hash home; the
            // directory already points at the new one, so hand the state
            // over from where it physically sits.
            let from = self
                .shards
                .iter()
                .position(|s| s.groups.contains_key(&gid))
                .expect("mover is resident");
            self.relocate_group(gid, from, to as usize);
        }
        self.metrics.shards_added += 1;
        if self.trace_on() {
            let ts = self.coord_ts();
            self.config.trace.emit(
                Event::new(Phase::Instant, ts, COORD_PID, CONTROL_TID, "shard.add").with(
                    Payload::Epoch {
                        epoch: self.epoch,
                        groups: moved.len() as u64,
                    },
                ),
            );
        }
        self.log(WalRecord::AddShard {
            shards: new_count as u32,
        });
        new_count - 1
    }

    /// Retires shard `shard` (which must be the highest-index shard —
    /// jump-hash bucket spaces are contiguous), live-moving its resident
    /// groups onto their homes at the reduced count and absorbing its
    /// cumulative stats into shard 0's so the
    /// stats-sum-to-[`ServiceMetrics`] partition invariant survives.
    ///
    /// Refuses with [`ServiceError::ShardBusy`] while any resident group
    /// has pending events (an in-flight round): relocating it would drop
    /// queued work on the floor. Tick the backlog dry first.
    pub fn remove_shard(&mut self, shard: usize) -> Result<(), ServiceError> {
        let live = self.shards.len();
        if shard >= live {
            return Err(ServiceError::NoSuchShard(shard));
        }
        if live == 1 {
            return Err(ServiceError::LastShard);
        }
        if shard != live - 1 {
            return Err(ServiceError::ShardNotHighest {
                shard,
                highest: live - 1,
            });
        }
        if let Some((&gid, _)) = self.shards[shard]
            .pending
            .iter()
            .find(|(_, q)| !q.is_empty())
        {
            return Err(ServiceError::ShardBusy { shard, group: gid });
        }
        let placed: Vec<(GroupId, u32)> = self
            .group_ids()
            .into_iter()
            .map(|gid| (gid, self.directory.locate(gid)))
            .collect();
        let moved = self.directory.shrink((live - 1) as u32, placed.into_iter());
        for &(gid, to) in &moved {
            self.relocate_group(gid, shard, to as usize);
        }
        let retired = self.health_shards.pop().expect("pool is non-empty");
        self.health_shards[0].absorb(&retired);
        self.shards.pop();
        debug_assert!(retired.shard == shard);
        self.metrics.shards_removed += 1;
        if self.trace_on() {
            let ts = self.coord_ts();
            self.config.trace.emit(
                Event::new(Phase::Instant, ts, COORD_PID, CONTROL_TID, "shard.remove").with(
                    Payload::Epoch {
                        epoch: self.epoch,
                        groups: moved.len() as u64,
                    },
                ),
            );
        }
        self.log(WalRecord::RemoveShard {
            shards: (live - 1) as u32,
        });
        Ok(())
    }

    /// Live-moves `gid` onto shard `to` and pins it there (moving a group
    /// back onto its jump-hash home drops the pin instead). The handoff
    /// runs through the sealed snapshot codec between epochs: no replay,
    /// no stalled epochs, and the pending queue travels along. Records
    /// the move for the rebalancer's hysteresis.
    pub fn move_group(&mut self, gid: GroupId, to: usize) -> Result<(), ServiceError> {
        if to >= self.shards.len() {
            return Err(ServiceError::NoSuchShard(to));
        }
        if !self.group_exists(gid) {
            return Err(ServiceError::UnknownGroup(gid));
        }
        let from = self.shard_of(gid);
        if from != to {
            self.relocate_group(gid, from, to);
        }
        self.directory.pin(gid, to as u32);
        self.last_moved.insert(gid, self.epoch);
        if self.trace_on() {
            let ts = self.coord_ts();
            self.config.trace.emit(
                Event::new(Phase::Instant, ts, COORD_PID, group_tid(gid), "group.move").with(
                    Payload::Epoch {
                        epoch: self.epoch,
                        groups: to as u64,
                    },
                ),
            );
        }
        self.log(WalRecord::MoveGroup { gid, to: to as u32 });
        Ok(())
    }

    /// Grows (or shrinks) the physical pool and its stats rows to `n`
    /// entries. Placement is not touched — callers adjust the directory.
    fn resize_pool(&mut self, n: usize) {
        while self.shards.len() < n {
            self.health_shards.push(ShardStats {
                shard: self.shards.len(),
                ..ShardStats::default()
            });
            self.shards.push(Shard::default());
        }
        self.shards.truncate(n);
        self.health_shards.truncate(n);
    }

    /// One live handoff: seal the group's state through the snapshot
    /// codec, install it on the target shard, move the pending queue.
    /// The seal/unseal round trip is deliberate — every handoff proves
    /// the state is exactly as portable as a snapshot says it is, and a
    /// failure surfaces as the same typed corruption.
    fn relocate_group(&mut self, gid: GroupId, from: usize, to: usize) {
        let mut state = self.shards[from]
            .groups
            .remove(&gid)
            .expect("relocating a resident group");
        // With a store the handoff reuses the group's cached blob (sealing
        // and caching one if none is current) and the target keeps it.
        // Without one nothing is sealed at rest: the transit seal uses the
        // development key and leaves the cache alone.
        let cached = self.config.store.is_some();
        let sealer = self
            .config
            .store
            .as_ref()
            .map_or_else(|| Sealer::new(&[0u8; 32]), StoreConfig::sealer);
        let sealed: Box<[u8]> = if cached {
            state.sealed(gid, &sealer).into()
        } else {
            sealer.seal(gid, state.session())
        };
        let transit = encode_group_state(&state, &sealed);
        drop(state);
        let mut restored = decode_group_state(&transit, &sealer, &self.pkg)
            .expect("transit-sealed group state must round-trip");
        if cached {
            restored.cache_seal(sealed);
        }
        self.shards[to].groups.insert(gid, restored);
        if let Some(queue) = self.shards[from].pending.remove(&gid) {
            if !queue.is_empty() {
                self.shards[to].pending.insert(gid, queue);
            }
        }
        self.metrics.groups_moved += 1;
    }

    /// The tick-top rebalancer pass: while any shard's pending backlog
    /// exceeds the armed policy's threshold, move its hottest
    /// off-cooldown group to the coldest shard. Runs *before* the epoch
    /// counter increments, and is suppressed during replay — the logged
    /// [`WalRecord::MoveGroup`] records reproduce the exact moves, which
    /// is what keeps recovery bit-identical even though the load stats
    /// driving the decisions are not persisted.
    fn rebalance(&mut self) {
        if self.replaying {
            return;
        }
        let Some(rb) = self.config.rebalancer else {
            return;
        };
        if self.shards.len() < 2 {
            return;
        }
        for _ in 0..rb.max_moves_per_epoch {
            let loads: Vec<u64> = self
                .shards
                .iter()
                .map(|s| s.pending.values().map(|q| q.len() as u64).sum())
                .collect();
            let mut hot = 0;
            let mut cold = 0;
            for i in 1..loads.len() {
                if loads[i] > loads[hot] {
                    hot = i;
                }
                if loads[i] < loads[cold] {
                    cold = i;
                }
            }
            if loads[hot] <= rb.max_pending || hot == cold {
                break;
            }
            // Hottest group: largest queue, ties to the lowest group id
            // (BTreeMap iteration is ascending, strict `>` keeps the
            // first). Skip groups still inside their cooldown window.
            let mut candidate: Option<(GroupId, usize)> = None;
            for (&gid, queue) in &self.shards[hot].pending {
                if queue.is_empty() {
                    continue;
                }
                let cooled = self
                    .last_moved
                    .get(&gid)
                    .is_none_or(|&at| self.epoch >= at + rb.cooldown_epochs);
                if !cooled {
                    continue;
                }
                if candidate.is_none_or(|(_, len)| queue.len() > len) {
                    candidate = Some((gid, queue.len()));
                }
            }
            let Some((gid, _)) = candidate else {
                break;
            };
            self.move_group(gid, cold)
                .expect("rebalancer moves between live shards cannot fail");
        }
    }

    /// Injects per-delivery loss into every subsequent rekey step's
    /// medium. Loss-stalled steps are retried (`step_retries`) with fresh
    /// randomness — the paper's "all members retransmit" path, driven by
    /// the scheduler. `0.0` restores reliable delivery.
    ///
    /// # Panics
    /// Panics unless `0.0 <= prob < 1.0`.
    pub fn set_loss(&mut self, prob: f64) {
        assert!((0.0..1.0).contains(&prob), "loss probability out of range");
        self.loss = prob;
        self.log(WalRecord::SetLoss(prob));
    }

    /// Marks `member` as powered off: any group whose next rekey needs it
    /// stalls and times out for the epoch (keeping its pre-epoch key,
    /// requeueing its events) while every other group proceeds.
    pub fn detach_member(&mut self, member: UserId) {
        self.detached.insert(member);
        self.log(WalRecord::Detach(member));
    }

    /// Reverses [`KeyService::detach_member`]; requeued events apply at
    /// the next tick. A battery-dead member stays down — its radio has no
    /// power to come back with.
    pub fn attach_member(&mut self, member: UserId) {
        if !self.known_dead.contains(&member) {
            self.detached.remove(&member);
        }
        self.log(WalRecord::Attach(member));
    }

    /// Installs `member`'s battery budget (microjoules), replacing the
    /// radio config's default. No-op off-radio.
    pub fn set_battery(&mut self, member: UserId, capacity_uj: f64) {
        if let Some(bank) = &self.bank {
            bank.set_capacity(member.0, capacity_uj);
            self.log(WalRecord::SetBattery {
                user: member,
                capacity_uj,
            });
        }
    }

    /// Per-member battery budgets (spent/remaining/dead), ascending by
    /// id. Empty off-radio or before any radio traffic.
    pub fn battery_status(&self) -> Vec<BatteryStatus> {
        self.bank.as_ref().map_or_else(Vec::new, |b| b.snapshot())
    }

    /// Members whose battery has drained to zero, ascending. Each was
    /// auto-detached at the end of the epoch it died in.
    pub fn dead_members(&self) -> Vec<UserId> {
        self.bank
            .as_ref()
            .map_or_else(Vec::new, |b| b.dead().into_iter().map(UserId).collect())
    }

    /// Creates a group by running the initial authenticated GKA over
    /// `members` (extracting their ID keys from the PKG), under the suite
    /// the service's [`SuitePolicy`] picks for this group size. Counts
    /// and energy are charged to the service metrics.
    ///
    /// Creation is **provisioning**, not radio traffic: like the PKG's
    /// `Extract`, it happens before the field powers up, so it runs on
    /// the instant medium and draws no battery even under a radio config.
    /// What it cannot do is raise the dead — founding a group with a
    /// detached or battery-dead member is rejected.
    pub fn create_group(&mut self, gid: GroupId, members: &[UserId]) -> Result<(), ServiceError> {
        if members.len() < 2 {
            return Err(ServiceError::GroupTooSmall);
        }
        for (i, u) in members.iter().enumerate() {
            if members[..i].contains(u) {
                return Err(ServiceError::DuplicateMember(*u));
            }
            if self.detached.contains(u) || self.bank.as_ref().is_some_and(|b| b.is_dead(u.0)) {
                return Err(ServiceError::MemberUnavailable(*u));
            }
        }
        let shard = self.shard_of(gid);
        if self.shards[shard].groups.contains_key(&gid) {
            return Err(ServiceError::GroupExists(gid));
        }
        let suite_id = self
            .config
            .policy
            .choose(&self.config.cost, members.len() as u64, 0);
        let seed = mix(mix(self.config.seed, gid), 0xc4ea7e);
        let strace = if self.trace_on() {
            let ts = self.coord_ts();
            self.config.trace.emit(
                Event::new(Phase::Begin, ts, COORD_PID, group_tid(gid), "create").with(
                    Payload::Plan {
                        suite: suite_id.key(),
                        steps: 1,
                    },
                ),
            );
            Some(StepTrace::new(COORD_PID, gid, ts))
        } else {
            None
        };
        let faults_for = |_seed: u64| Faults {
            trace: strace.clone(),
            ..Faults::none()
        };
        let ctx = StepCtx {
            pkg: &self.pkg,
            seed,
            composable_joins: self.config.cost.composable_joins,
            faults_for: &faults_for,
        };
        let mut run = suite(suite_id).initial(&ctx, self.pkg.params(), members);
        loop {
            match run.pump() {
                Pump::Done => break,
                Pump::Progressed => {}
                other => panic!("group creation on a reliable medium cannot {other:?}"),
            }
        }
        let out = run.finish();
        let mut created = Counters::default();
        for node in &out.reports {
            created.add_ops(&node.counts);
            created.energy_mj += self.config.cost.price_mj(&node.counts);
        }
        let created_mj = created.energy_mj;
        // One suite rekey, but no `rekeys_executed`: creations are not
        // epoch dynamics. The work lands on the shard the group will
        // live on.
        created.per_suite.insert(
            suite_id,
            SuiteUsage {
                rekeys: 1,
                energy_mj: created_mj,
            },
        );
        self.metrics.add(&created);
        self.health_shards[shard].add(&created);
        if let Some(st) = strace {
            st.close();
            let end = st.end_ns();
            self.config.trace.emit_all(st.drain());
            self.config.trace.emit(
                Event::new(Phase::End, end, COORD_PID, group_tid(gid), "create").with(
                    Payload::Rekey {
                        suite: suite_id.key(),
                        rekeys: 1,
                        mj: created_mj,
                    },
                ),
            );
            self.coord_ns = self.coord_ns.max(end);
            if let Some(reg) = self.config.trace.registry() {
                reg.add("groups_created", 1);
            }
        }
        self.shards[shard]
            .groups
            .insert(gid, GroupState::new(out.session, suite_id, self.epoch, 0));
        self.metrics.groups_created += 1;
        self.metrics.groups_active += 1;
        self.log(WalRecord::CreateGroup {
            gid,
            members: members.to_vec(),
        });
        Ok(())
    }

    /// Queues a membership event against `gid`; it will be applied (and
    /// coalesced with its neighbours) at the next [`KeyService::tick`].
    pub fn submit(&mut self, gid: GroupId, event: MembershipEvent) -> Result<(), ServiceError> {
        let shard = self.shard_of(gid);
        if !self.shards[shard].groups.contains_key(&gid) {
            return Err(ServiceError::UnknownGroup(gid));
        }
        // Quarantine gate: an evicted member's Join is refused until its
        // penalty elapses; the first post-penalty Join readmits it. The
        // event applies at the *next* epoch, so that is the epoch the
        // penalty is judged against.
        if let MembershipEvent::Join(u) = &event {
            if let Some(until_epoch) = self.quarantine.pending_until(u.0) {
                if self.epoch + 1 < until_epoch {
                    return Err(ServiceError::Quarantined {
                        user: *u,
                        until_epoch,
                    });
                }
                self.quarantine.readmit(u.0);
                self.metrics.members_readmitted += 1;
            }
        }
        self.shards[shard]
            .pending
            .entry(gid)
            .or_default()
            .push(event.clone());
        self.metrics.events_submitted += 1;
        self.log(WalRecord::Submit { gid, event });
        Ok(())
    }

    /// Runs one rekey epoch: resolves cross-group merges on the
    /// coordinator, then fans the shards across threads — each shard a
    /// single-threaded *scheduler* interleaving its pending groups' round
    /// machines — and folds their reports.
    pub fn tick(&mut self) -> EpochReport {
        // Rebalance *before* the epoch counter increments: the cooldown
        // stamps written here must match the ones a WAL replay produces,
        // and replayed MoveGroup records land before their epoch's
        // EpochCommit advances the counter.
        self.rebalance();
        self.epoch += 1;
        let epoch = self.epoch;
        let trace_enabled = self.trace_on();
        if trace_enabled {
            // Each epoch gets a fixed slot on the virtual timeline; the
            // coordinator's own events tick forward inside it.
            self.coord_ns = epoch.saturating_mul(EPOCH_NS).max(self.coord_ns + SWEEP_NS);
            self.config.trace.emit(
                Event::new(Phase::Begin, self.coord_ns, COORD_PID, CONTROL_TID, "epoch").with(
                    Payload::Epoch {
                        epoch,
                        groups: self.groups_active() as u64,
                    },
                ),
            );
        }

        // Eviction synthesis runs before merge resolution and the shard
        // fan-out, so the synthesized Leaves are in the queues this
        // epoch's planners drain — the stalled group completes *this*
        // tick, over the survivors.
        let (evicted_pairs, certs_signed) = self.synthesize_evictions(epoch);

        let merges_started = Instant::now();
        let (host_deltas, deferred_merges) = self.resolve_merges(epoch);
        let mut report = EpochReport {
            epoch,
            members_evicted: evicted_pairs.len() as u64,
            blame_certs: certs_signed,
            evicted: evicted_pairs,
            ..EpochReport::default()
        };
        report.phases.execute.wall += merges_started.elapsed();

        // Fan out: shards are independent (no group spans two shards), so
        // this is lock-free parallelism; determinism is per-shard. The
        // battery bank *is* shared across shards, but each cell is only
        // ever debited by its owner's group, so drain order per cell stays
        // deterministic too.
        let pkg = Arc::clone(&self.pkg);
        let cost = self.config.cost.clone();
        let policy = self.config.policy.clone();
        let seed = self.config.seed;
        let detached: Vec<UserId> = self.detached.iter().copied().collect();
        let loss = self.loss;
        let step_retries = self.config.step_retries;
        let radio = self.radio_epoch();
        par::par_for_each_mut(&mut self.shards, |i, shard| {
            shard.run_epoch(&EpochCtx {
                pkg: &pkg,
                cost: &cost,
                policy: &policy,
                epoch,
                service_seed: seed,
                loss,
                detached: &detached,
                step_retries,
                radio: radio.as_ref(),
                pid: i as u32 + 1,
                trace_enabled,
            });
        });

        let commit_started = Instant::now();
        let mut shard_deltas: ShardDeltas = Vec::with_capacity(self.shards.len());
        for (i, shard) in self.shards.iter_mut().enumerate() {
            // Shards buffered their events locally during the parallel
            // phase; draining them here, in shard order, keeps the global
            // event stream deterministic.
            if trace_enabled {
                self.config
                    .trace
                    .emit_all(std::mem::take(&mut shard.scratch_trace));
            }
            shard_deltas.push((i, std::mem::take(&mut shard.scratch)));
        }
        // Every delta lands once in the epoch report and once in its
        // shard's row — merge hosts in host order, then shards in index
        // order (the f64 energy sums depend on that order).
        for (i, delta) in host_deltas.into_iter().chain(shard_deltas) {
            self.health_shards[i].record(&delta);
            report.absorb(delta);
        }
        // Directory hygiene: groups that dissolved this epoch must not
        // leave stale pins (or cooldown stamps) behind — a reused gid
        // would inherit a dead group's placement.
        let stale: Vec<GroupId> = self
            .directory
            .overrides()
            .map(|(gid, _)| gid)
            .chain(self.last_moved.keys().copied())
            .filter(|&gid| !self.group_exists(gid))
            .collect();
        for gid in stale {
            self.directory.forget(gid);
            self.last_moved.remove(&gid);
        }
        // Harvest battery deaths: a drained member is powered off for good
        // — auto-detach it so the next epoch's planner fails fast instead
        // of burning the retransmission budget on a corpse. Evicting it
        // (a Leave) still works: leavers transmit nothing.
        let drained = self.bank.as_ref().map(|b| b.dead()).unwrap_or_default();
        for user in drained {
            let u = UserId(user);
            if self.known_dead.insert(u) {
                self.detached.insert(u);
                report.nodes_died += 1;
                if trace_enabled {
                    let ts = self.coord_ts();
                    self.config.trace.emit(
                        Event::new(Phase::Instant, ts, COORD_PID, CONTROL_TID, "battery.death")
                            .with(Payload::Death { user }),
                    );
                }
            }
        }
        // Timed-out merge folds go back into their host's queue now —
        // after the shard phase, so this tick's planners (which reject
        // `MergeWith` by construction) never see them — and are resolved
        // again at the next tick.
        for (host, target) in deferred_merges {
            if self.group_exists(host) {
                let hs = self.shard_of(host);
                self.shards[hs]
                    .pending
                    .entry(host)
                    .or_default()
                    .push(MembershipEvent::MergeWith(target));
                // Already counted at its original submit; no re-count.
            }
        }
        // Feed the stall ledger: successes first (they close streaks),
        // then this epoch's stalls — a group that both merged and stalled
        // this epoch is, as of now, stalled.
        for gid in &report.rekeyed_groups {
            self.ledger.record_success(*gid);
        }
        for ev in &report.stall_events {
            self.ledger.record_stall(ev.group, ev.cause, &ev.culprits);
        }
        self.metrics.add_epoch(&report);
        self.metrics.groups_active = self.shards.iter().map(|s| s.groups.len() as u64).sum();
        // Write-ahead commit: the epoch is durable before its report is
        // visible to the caller, so an acknowledged rekey can always be
        // reconstructed.
        self.log(WalRecord::EpochCommit { epoch });
        report.phases.commit.wall += commit_started.elapsed();
        let snapshot_due = self.config.store.as_ref().is_some_and(|store| {
            !self.replaying
                && store.snapshot_every > 0
                && epoch.is_multiple_of(store.snapshot_every)
        });
        if snapshot_due {
            let snapshot_started = Instant::now();
            self.snapshot_now();
            report.phases.snapshot.wall += snapshot_started.elapsed();
        }
        self.phase_totals.add(&report.phases);
        if trace_enabled {
            if let Some(reg) = self.config.trace.registry() {
                reg.add("epochs", 1);
                reg.add("rekeys", report.rekeys_executed);
                reg.add("rekeys_failed", report.rekeys_failed);
                reg.add("steps_retried", report.steps_retried);
                reg.add("nodes_died", report.nodes_died);
                // Robustness counters appear only once an eviction fires,
                // keeping eviction-free expositions bit-identical.
                if report.members_evicted > 0 {
                    reg.add("members_evicted", report.members_evicted);
                    reg.add("blame_certs", report.blame_certs);
                }
                for ms in &report.rekey_latencies_virtual_ms {
                    reg.observe("rekey_latency_vms", *ms);
                }
                for (sid, usage) in &report.per_suite {
                    reg.observe(
                        &labeled("suite_energy_mj", &[("suite", sid.key())]),
                        usage.energy_mj,
                    );
                }
                // Live-load gauges and epoch-windowed rates — all virtual
                // / deterministic values, so same-seed runs render a
                // byte-identical exposition.
                for (i, shard) in self.shards.iter().enumerate() {
                    let idx = i.to_string();
                    reg.set_gauge(
                        &labeled("shard_groups", &[("shard", &idx)]),
                        shard.groups.len() as f64,
                    );
                    reg.set_gauge(
                        &labeled("shard_pending_events", &[("shard", &idx)]),
                        shard.pending.values().map(|q| q.len()).sum::<usize>() as f64,
                    );
                }
                reg.set_gauge("groups_active", self.metrics.groups_active as f64);
                reg.meter("events_applied", report.events_applied as f64);
                reg.meter("rekeys_executed", report.rekeys_executed as f64);
                reg.meter("energy_mj", report.energy_mj);
                reg.roll_window();
            }
            let ts = self.coord_ts();
            self.config.trace.emit(
                Event::new(Phase::End, ts, COORD_PID, CONTROL_TID, "epoch").with(Payload::Epoch {
                    epoch,
                    groups: self.metrics.groups_active,
                }),
            );
        }
        report
    }

    /// The eviction planner's tick-top pass: consults the stall ledger
    /// (fed through the *previous* epoch), asks the armed
    /// [`EvictionPolicy`] who must go, signs and WAL-logs one
    /// [`BlameCert`] per evicting group, books the members into
    /// quarantine, and injects the synthesized Leave events. Returns the
    /// `(group, member)` eviction pairs and the number of certificates
    /// signed. A no-op (and bit-for-bit invisible) without an armed
    /// policy or when no streak has crossed the threshold.
    fn synthesize_evictions(&mut self, epoch: u64) -> (Vec<(GroupId, UserId)>, u64) {
        let Some(policy) = self.config.eviction else {
            return (Vec::new(), 0);
        };
        let group_streaks: Vec<(u64, u64)> = self
            .ledger
            .group_records()
            .into_iter()
            .filter(|(gid, _)| self.group_exists(*gid))
            .map(|(gid, s)| (gid, s.consecutive))
            .collect();
        let mut members: Vec<(u64, MemberEvidence)> = Vec::new();
        for rec in self.ledger.member_records() {
            if !self.group_exists(rec.group) {
                continue;
            }
            let shard = self.shard_of(rec.group);
            let in_session = self.shards[shard].groups[&rec.group]
                .session()
                .member_ids()
                .contains(&rec.member);
            let queue = self.shards[shard].pending.get(&rec.group);
            // A culprit that is only a *pending arrival* (a queued Join
            // of an unreachable user) is evicted the same way: the
            // synthesized Leave cancels the still-pending Join.
            let join_pending = queue.is_some_and(|q| {
                q.iter()
                    .any(|ev| matches!(ev, MembershipEvent::Join(u) if *u == rec.member))
            });
            if !in_session && !join_pending {
                continue;
            }
            // Already leaving on its own — nothing to synthesize.
            let leave_pending = queue.is_some_and(|q| {
                q.iter()
                    .any(|ev| matches!(ev, MembershipEvent::Leave(u) if *u == rec.member))
            });
            if leave_pending {
                continue;
            }
            members.push((
                rec.group,
                MemberEvidence {
                    member: rec.member.0,
                    streak: rec.stall.consecutive,
                    cumulative: rec.stall.cumulative,
                    cause: rec.stall.last_cause,
                },
            ));
        }
        let decisions = policy.plan(&group_streaks, &members);
        if decisions.is_empty() {
            return (Vec::new(), 0);
        }
        let coordinator = self
            .coordinator
            .clone()
            .expect("coordinator key exists whenever eviction is armed");
        let mut evicted_pairs: Vec<(GroupId, UserId)> = Vec::new();
        let mut certs_signed = 0u64;
        for decision in decisions {
            let cert = BlameCert::sign(&coordinator, decision.group, epoch, decision.evicted);
            if self.replaying {
                // The logged certificate must be re-derived bit for bit;
                // ticks cannot error, so divergence is parked for the
                // epoch-commit record to surface as corruption.
                match self.replay_certs.iter().position(|c| *c == cert) {
                    Some(i) => {
                        self.replay_certs.remove(i);
                    }
                    None => {
                        self.replay_fault =
                            Some("replayed eviction diverged from the logged blame certificate");
                    }
                }
            } else {
                self.log(WalRecord::Evict {
                    cert: cert.encode(),
                });
            }
            certs_signed += 1;
            let shard = self.shard_of(decision.group);
            for ev in &cert.evicted {
                let user = UserId(ev.member);
                self.shards[shard]
                    .pending
                    .entry(decision.group)
                    .or_default()
                    .push(MembershipEvent::Leave(user));
                self.quarantine
                    .quarantine(&policy, ev.member, epoch, ev.cumulative);
                evicted_pairs.push((decision.group, user));
                if self.trace_on() {
                    let ts = self.coord_ts();
                    self.config.trace.emit(
                        Event::new(Phase::Instant, ts, COORD_PID, CONTROL_TID, "evict").with(
                            Payload::Evict {
                                group: decision.group,
                                user: ev.member,
                                streak: ev.streak,
                            },
                        ),
                    );
                }
            }
            self.blame_certs.push(cert);
        }
        (evicted_pairs, certs_signed)
    }

    /// Serializes the full service state (sealing session-key material
    /// under the store's envelope key) and installs it atomically,
    /// truncating the WAL — the compaction point recovery replays from.
    /// Only groups whose session changed since their last seal are sealed
    /// again, in parallel on the shards; every other group's cached blob
    /// is copied. No-op without a configured store or during replay.
    ///
    /// # Panics
    /// Like WAL appends, a failed snapshot install is fatal
    /// (fail-stop durability).
    pub fn snapshot_now(&mut self) {
        if self.config.store.is_none() || self.replaying {
            return;
        }
        // Cutting a snapshot consumes one LSN (its trace span carries it).
        let snapshot_lsn = self.next_lsn;
        self.next_lsn += 1;
        let store = self.config.store.as_ref().expect("checked above");
        let sealer = store.sealer();
        par::par_for_each_mut(&mut self.shards, |_, shard| shard.seal_groups(&sealer));
        let batteries = self
            .bank
            .as_ref()
            .map(|b| {
                b.snapshot()
                    .into_iter()
                    .map(|s| (s.user, s.capacity_uj, s.spent_uj))
                    .collect()
            })
            .unwrap_or_default();
        let mut groups: Vec<(GroupId, &GroupState)> = Vec::new();
        let mut pending: Vec<(GroupId, &[MembershipEvent])> = Vec::new();
        for shard in &self.shards {
            for (&gid, state) in &shard.groups {
                groups.push((gid, state));
            }
            for (&gid, queue) in &shard.pending {
                if !queue.is_empty() {
                    pending.push((gid, queue));
                }
            }
        }
        groups.sort_by_key(|(gid, _)| *gid);
        pending.sort_by_key(|(gid, _)| *gid);
        let stall_groups = self
            .ledger
            .group_records()
            .into_iter()
            .map(|(gid, s)| (gid, s.consecutive, s.cumulative, s.last_cause))
            .collect();
        let stall_members = self
            .ledger
            .member_records()
            .into_iter()
            .map(|r| {
                (
                    r.group,
                    r.member.0,
                    r.stall.consecutive,
                    r.stall.cumulative,
                    r.stall.last_cause,
                )
            })
            .collect();
        let state = SnapshotState {
            shards: self.config.shards as u32,
            seed: self.config.seed,
            epoch: self.epoch,
            next_lsn: self.next_lsn,
            loss: self.loss,
            detached: self.detached.iter().copied().collect(),
            known_dead: self.known_dead.iter().copied().collect(),
            batteries,
            groups,
            pending,
            stall_groups,
            stall_members,
            quarantine: self.quarantine.rows(),
            blame_certs: self.blame_certs.iter().map(BlameCert::encode).collect(),
            dir_shards: self.directory.shards(),
            overrides: self.directory.overrides().collect(),
            last_moved: self.last_moved.iter().map(|(&g, &e)| (g, e)).collect(),
        };
        let bytes = encode_snapshot(&state);
        let snapshot_bytes = bytes.len() as u64;
        store
            .backend
            .install_snapshot(&bytes)
            .expect("snapshot install must not fail (fail-stop durability)");
        self.metrics.snapshots_written += 1;
        self.metrics.store_syncs = store.backend.sync_count();
        if self.trace_on() {
            let begin = self.coord_ts();
            let end = self.coord_ts();
            let lsn = Payload::Lsn {
                lsn: snapshot_lsn,
                bytes: snapshot_bytes,
            };
            self.config.trace.emit(
                Event::new(Phase::Begin, begin, COORD_PID, CONTROL_TID, "snapshot").with(lsn),
            );
            self.config
                .trace
                .emit(Event::new(Phase::End, end, COORD_PID, CONTROL_TID, "snapshot").with(lsn));
            if let Some(reg) = self.config.trace.registry() {
                reg.add("snapshots_written", 1);
            }
        }
    }

    /// Drains `MergeWith` events from every queue and executes them on the
    /// coordinator thread (merges are the one operation crossing shard
    /// boundaries). Host groups are processed in ascending id order;
    /// absorbed groups forward both their queued events and their pending
    /// merge requests to their absorber. Each host's work — rejections,
    /// committed folds and aborted attempts alike — is billed into one
    /// delta, returned in host order tagged with the host's shard. Folds
    /// that time out under the fault plan are returned as deferred
    /// `(host, target)` requests; the caller reinjects them after the
    /// shard phase so they retry next tick.
    fn resolve_merges(&mut self, epoch: u64) -> (ShardDeltas, Vec<(GroupId, GroupId)>) {
        let mut billed: ShardDeltas = Vec::new();
        let mut deferred: Vec<(GroupId, GroupId)> = Vec::new();

        // (host, target) pairs in deterministic order.
        let mut requests: Vec<(GroupId, GroupId)> = Vec::new();
        for shard in &mut self.shards {
            for (&gid, queue) in shard.pending.iter_mut() {
                queue.retain(|ev| match *ev {
                    MembershipEvent::MergeWith(other) => {
                        requests.push((gid, other));
                        false
                    }
                    _ => true,
                });
            }
        }
        if requests.is_empty() {
            return (billed, deferred);
        }
        requests.sort();

        // absorbed[g] = the group that now holds g's members.
        let mut absorbed: std::collections::BTreeMap<GroupId, GroupId> =
            std::collections::BTreeMap::new();
        let resolve = |absorbed: &std::collections::BTreeMap<GroupId, GroupId>, mut g: GroupId| {
            while let Some(&into) = absorbed.get(&g) {
                g = into;
            }
            g
        };

        // host → targets, following absorptions as they happen.
        let mut i = 0;
        while i < requests.len() {
            let host = resolve(&absorbed, requests[i].0);
            let host_shard = self.shard_of(host);
            let mut delta = EpochReport::default();
            // Gather every request whose resolved host is `host` in this
            // contiguous run (requests are sorted by original host id).
            let mut targets: Vec<GroupId> = Vec::new();
            let first_host = requests[i].0;
            while i < requests.len() && requests[i].0 == first_host {
                let raw_target = requests[i].1;
                let target = resolve(&absorbed, raw_target);
                let ev = MembershipEvent::MergeWith(raw_target);
                let rejected = if target == host {
                    Some(RejectReason::SelfMerge)
                } else if !self.group_exists(target) {
                    Some(RejectReason::UnknownPeerGroup)
                } else if targets.contains(&target) {
                    Some(RejectReason::DuplicateMerge)
                } else {
                    targets.push(target);
                    None
                };
                if let Some(reason) = rejected {
                    delta.events_rejected += 1;
                    delta.rejections.push((host, ev, reason));
                }
                i += 1;
            }
            if !self.group_exists(host) {
                delta.events_rejected += targets.len() as u64;
                delta.rejections.extend(
                    targets
                        .drain(..)
                        .map(|t| (host, MembershipEvent::MergeWith(t), RejectReason::GroupGone)),
                );
            }
            if targets.is_empty() {
                billed.push((host_shard, delta));
                continue;
            }

            // Fold the targets into the host with k−1 pairwise merges
            // (`merge_many`'s schedule), each under the service's fault
            // plan: a stalled fold retransmits with fresh randomness and,
            // if it keeps stalling (e.g. a powered-off member), the
            // remaining merge requests are deferred to the next tick with
            // every already-committed fold kept.
            let started = Instant::now();
            let seed = mix(mix(self.config.seed, host), epoch ^ 0x6d65);
            let mut acc = self.shards[host_shard].groups[&host].session().clone();
            let mut acc_suite = self.shards[host_shard].groups[&host].suite;
            delta.groups_touched += 1;
            let mut folds_done = 0u64;
            let mut virtual_ms = 0.0f64;
            // Per-suite split of the ops this host's folds charge, for
            // the per-suite energy ledger.
            let mut suite_ops: BTreeMap<SuiteId, OpCounts> = BTreeMap::new();
            let mut host_stalled = false;
            for (j, &t) in targets.iter().enumerate() {
                // merge_many's fold seeds: `seed` for the first fold,
                // `seed ^ (k << 8)` for session index k ≥ 2.
                let fold_seed = if j == 0 {
                    seed
                } else {
                    seed ^ ((j as u64 + 1) << 8)
                };
                let target_session = self.shards[self.shard_of(t)].groups[&t].session().clone();
                // A native-dynamics host folds with its own Merge; a
                // baseline host's "merge" is a full re-run over the union,
                // so a Cheapest policy gets to re-pick the suite for the
                // merged size (migrating the group, as at any full rekey).
                let fold_suite = if egka_core::suite::suite(acc_suite).native_dynamics() {
                    acc_suite
                } else {
                    let merged = (acc.n() + target_session.n()) as u64;
                    self.config.policy.choose(&self.config.cost, merged, 0)
                };
                let fold_trace = if self.trace_on() {
                    let ts = self.coord_ts();
                    self.config.trace.emit(
                        Event::new(Phase::Begin, ts, COORD_PID, group_tid(host), "merge.fold")
                            .with(Payload::Plan {
                                suite: fold_suite.key(),
                                steps: 1,
                            }),
                    );
                    Some(StepTrace::new(COORD_PID, host, ts))
                } else {
                    None
                };
                let vms_before = virtual_ms;
                let retried_before = delta.steps_retried;
                let folded = self.fold_one_merge(
                    fold_suite,
                    &acc,
                    &target_session,
                    fold_seed,
                    &mut delta,
                    suite_ops.entry(fold_suite).or_default(),
                    &mut virtual_ms,
                    fold_trace.as_ref(),
                );
                if let Some(st) = fold_trace {
                    st.close();
                    let end = st.end_ns();
                    self.config.trace.emit_all(st.drain());
                    self.config.trace.emit(
                        Event::new(Phase::End, end, COORD_PID, group_tid(host), "merge.fold").with(
                            Payload::Step {
                                suite: fold_suite.key(),
                                step: j as u32,
                                retries: (delta.steps_retried - retried_before) as u32,
                                vms: virtual_ms - vms_before,
                                bits: 0,
                                mj: 0.0,
                            },
                        ),
                    );
                    self.coord_ns = self.coord_ns.max(end);
                }
                match folded {
                    Some(out) => {
                        let fold_ops = suite_ops.entry(fold_suite).or_default();
                        for r in &out.reports {
                            delta.add_ops(&r.counts);
                            fold_ops.merge(&r.counts);
                        }
                        delta.full_gka_runs += out.gka_runs;
                        delta.per_suite.entry(fold_suite).or_default().rekeys += 1;
                        acc = out.session;
                        acc_suite = fold_suite;
                        folds_done += 1;
                        delta.rekeys_executed += 1;
                        delta.events_applied += 1;
                        // The absorbed group's pending events forward to
                        // the host.
                        absorbed.insert(t, host);
                        self.metrics.groups_merged_away += 1;
                        let ts = self.shard_of(t);
                        self.shards[ts].groups.remove(&t);
                        self.directory.forget(t);
                        self.last_moved.remove(&t);
                        let forwarded = self.shards[ts].pending.remove(&t).unwrap_or_default();
                        if !forwarded.is_empty() {
                            self.shards[host_shard]
                                .pending
                                .entry(host)
                                .or_default()
                                .extend(forwarded);
                        }
                    }
                    None => {
                        // This fold (and, with the host ring unchanged,
                        // every later one) cannot complete now; defer the
                        // unserved requests past this tick's shard phase.
                        delta.rekeys_failed += 1;
                        delta.groups_stalled += 1;
                        // Attribute the stall exactly as the shard
                        // scheduler would: unreachable members of either
                        // ring are the culprits; none means pure loss.
                        let mut culprits: Vec<UserId> = acc
                            .member_ids()
                            .iter()
                            .chain(target_session.member_ids().iter())
                            .copied()
                            .filter(|u| {
                                self.detached.contains(u)
                                    || self.bank.as_ref().is_some_and(|b| b.is_dead(u.0))
                            })
                            .collect();
                        culprits.sort_unstable();
                        culprits.dedup();
                        let cause = if culprits.is_empty() {
                            StallCause::Loss
                        } else if self.detached.is_empty() {
                            StallCause::BatteryDead
                        } else {
                            StallCause::Detached
                        };
                        delta.stall_events.push(StallEvent {
                            group: host,
                            cause,
                            culprits,
                        });
                        host_stalled = true;
                        deferred.extend(targets[j..].iter().map(|&rem| (host, rem)));
                        break;
                    }
                }
            }
            if folds_done > 0 {
                let state = self.shards[host_shard]
                    .groups
                    .get_mut(&host)
                    .expect("host exists");
                state.set_session(acc);
                state.suite = acc_suite;
                state.rekeys += folds_done;
                if !host_stalled {
                    delta.rekeyed_groups.push(host);
                }
                delta.rekey_latencies.push(started.elapsed());
                if self.config.radio.is_some() {
                    delta.rekey_latencies_virtual_ms.push(virtual_ms);
                }
            }
            // Price the host's work — committed folds and aborted
            // attempts alike — in total and per suite.
            delta.energy_mj = self.config.cost.price_mj(&delta.ops);
            for (suite_id, ops) in &suite_ops {
                delta.per_suite.entry(*suite_id).or_default().energy_mj +=
                    self.config.cost.price_mj(ops);
            }
            billed.push((host_shard, delta));
        }
        (billed, deferred)
    }

    /// The per-tick radio context (profile + shared bank), if configured.
    fn radio_epoch(&self) -> Option<RadioEpoch> {
        self.config.radio.as_ref().map(|rc| RadioEpoch {
            profile: rc.profile.clone(),
            bank: self.bank.clone().expect("bank exists whenever radio does"),
        })
    }

    /// Attempts one pairwise merge fold under the service fault plan — as
    /// `fold_suite`'s [`egka_core::Suite::merge_groups`] realization —
    /// retrying loss stalls with fresh randomness. `None` means the fold
    /// timed out (its wasted transmissions are already charged, into
    /// `host` and `fold_ops`). `virtual_ms` accumulates the fold's radio
    /// time, aborted attempts included.
    #[allow(clippy::too_many_arguments)] // one accumulator per ledger, by design
    fn fold_one_merge(
        &self,
        fold_suite: SuiteId,
        acc: &GroupSession,
        target: &GroupSession,
        fold_seed: u64,
        host: &mut Counters,
        fold_ops: &mut OpCounts,
        virtual_ms: &mut f64,
        trace: Option<&StepTrace>,
    ) -> Option<SuiteOutcome> {
        let involves_detached = acc
            .member_ids()
            .iter()
            .chain(target.member_ids().iter())
            .any(|u| {
                self.detached.contains(u) || self.bank.as_ref().is_some_and(|b| b.is_dead(u.0))
            });
        let mut retry = 0u32;
        loop {
            let salted = if retry == 0 {
                fold_seed
            } else {
                mix(fold_seed, 0x7e70 + u64::from(retry))
            };
            let faults_for = |seed: u64| Faults {
                loss: self.loss,
                loss_seed: mix(seed, 0x105e),
                detached: self.detached.iter().copied().collect(),
                radio: self.config.radio.as_ref().map(|rc| RadioSpec {
                    profile: rc.profile.clone(),
                    seed: mix(seed, 0xad10),
                    bank: self.bank.clone(),
                }),
                trace: trace.cloned(),
            };
            let ctx = StepCtx {
                pkg: &self.pkg,
                seed: salted,
                composable_joins: self.config.cost.composable_joins,
                faults_for: &faults_for,
            };
            let mut run = suite(fold_suite).merge_groups(&ctx, acc, target);
            loop {
                match run.pump() {
                    Pump::Done => {
                        *virtual_ms += run.virtual_elapsed_ms();
                        return Some(run.finish());
                    }
                    Pump::Progressed => {}
                    Pump::Stalled | Pump::Failed(_) => break,
                }
            }
            let wasted = run.partial_counts();
            host.add_ops(&wasted);
            fold_ops.merge(&wasted);
            *virtual_ms += run.virtual_elapsed_ms();
            if involves_detached || retry >= self.config.step_retries {
                return None;
            }
            retry += 1;
            host.steps_retried += 1;
        }
    }

    fn group_exists(&self, gid: GroupId) -> bool {
        self.shards[self.shard_of(gid)].groups.contains_key(&gid)
    }

    /// The group's current key, if the group is live.
    pub fn group_key(&self, gid: GroupId) -> Option<&Ubig> {
        self.shards[self.shard_of(gid)]
            .groups
            .get(&gid)
            .map(|s| &s.session().key)
    }

    /// The group's live session, if any (omniscient test/inspection view).
    pub fn session(&self, gid: GroupId) -> Option<&GroupSession> {
        self.shards[self.shard_of(gid)]
            .groups
            .get(&gid)
            .map(GroupState::session)
    }

    /// The group's cached sealed session, if one is current.
    #[cfg(test)]
    pub(crate) fn cached_seal(&self, gid: GroupId) -> Option<&[u8]> {
        self.shards[self.shard_of(gid)]
            .groups
            .get(&gid)?
            .cached_seal()
    }

    /// Drops every cached seal, so the next snapshot seals every group.
    #[cfg(test)]
    pub(crate) fn forget_seals(&mut self) {
        for g in self.shards.iter_mut().flat_map(|s| s.groups.values_mut()) {
            let session = g.session().clone();
            g.set_session(session);
        }
    }

    /// Number of live groups.
    pub fn groups_active(&self) -> usize {
        self.shards.iter().map(|s| s.groups.len()).sum()
    }

    /// Live group ids, ascending.
    pub fn group_ids(&self) -> Vec<GroupId> {
        let mut ids: Vec<GroupId> = self
            .shards
            .iter()
            .flat_map(|s| s.groups.keys().copied())
            .collect();
        ids.sort_unstable();
        ids
    }

    /// Cumulative service metrics.
    pub fn metrics(&self) -> &ServiceMetrics {
        &self.metrics
    }

    /// Per-shard load and outcome stats, ascending by shard index — the
    /// counters accumulated since construction (or recovery-replay start)
    /// plus live gauges (`groups`, `pending_events`) filled at call time.
    /// The counter fields sum to the matching [`ServiceMetrics`] totals.
    pub fn shard_stats(&self) -> Vec<ShardStats> {
        self.health_shards
            .iter()
            .map(|hs| {
                let mut s = hs.clone();
                s.groups = self.shards[hs.shard].groups.len() as u64;
                s.pending_events = self.shards[hs.shard]
                    .pending
                    .values()
                    .map(|q| q.len() as u64)
                    .sum();
                s
            })
            .collect()
    }

    /// The per-member stall attribution ledger.
    pub fn stall_ledger(&self) -> &StallLedger {
        &self.ledger
    }

    /// Every blame certificate this service has signed (or re-derived
    /// during recovery replay), in eviction order. Empty without an
    /// armed eviction policy.
    pub fn blame_certs(&self) -> &[BlameCert] {
        &self.blame_certs
    }

    /// The coordinator's blame-verification key, when an eviction policy
    /// is armed — hand it to anyone auditing [`BlameCert`]s.
    pub fn blame_public(&self) -> Option<BlamePublic> {
        self.coordinator.as_ref().map(CoordinatorKey::public)
    }

    /// Whether `member`'s quarantine penalty would refuse a Join
    /// submitted right now.
    pub fn is_quarantined(&self, member: UserId) -> bool {
        self.quarantine.is_quarantined(member.0, self.epoch + 1)
    }

    /// The penalty box as `(member, until_epoch, evictions)` rows,
    /// ascending by member — `until_epoch` 0 means readmitted, with the
    /// eviction count retained for backoff escalation.
    pub fn quarantine_rows(&self) -> Vec<(u32, u64, u32)> {
        self.quarantine.rows()
    }

    /// Cumulative epoch phase profile: where tick wall time (and virtual
    /// radio time) has gone since construction.
    pub fn phase_profile(&self) -> &PhaseProfile {
        &self.phase_totals
    }

    /// A typed liveness verdict from the stall ledger and battery bank:
    /// [`HealthReport::Stalled`] when any *live* group has
    /// [`STALLED_AFTER_EPOCHS`] or more consecutive stalled epochs,
    /// [`HealthReport::Degraded`] for shorter live streaks or battery
    /// deaths, else [`HealthReport::Healthy`]. Deterministic given the
    /// event history; dissolved or merged-away groups never count.
    pub fn health(&self) -> HealthReport {
        let mut stalled: Vec<GroupId> = Vec::new();
        let mut reasons: Vec<String> = Vec::new();
        for (gid, s) in self.ledger.group_records() {
            if s.consecutive == 0 || !self.group_exists(gid) {
                continue;
            }
            if s.consecutive >= STALLED_AFTER_EPOCHS {
                stalled.push(gid);
            } else {
                reasons.push(format!(
                    "group {gid}: {} consecutive stalled epoch(s) ({})",
                    s.consecutive,
                    s.last_cause.label()
                ));
            }
        }
        if !stalled.is_empty() {
            return HealthReport::Stalled { groups: stalled };
        }
        if !self.known_dead.is_empty() {
            reasons.push(format!("{} member(s) battery-dead", self.known_dead.len()));
        }
        if reasons.is_empty() {
            HealthReport::Healthy
        } else {
            HealthReport::Degraded { reasons }
        }
    }

    /// Current epoch number (ticks completed).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The PKG parameters this service runs on.
    pub fn pkg(&self) -> &Pkg {
        &self.pkg
    }

    /// The suite-selection policy this service was built with.
    pub fn suite_policy(&self) -> &SuitePolicy {
        &self.config.policy
    }

    /// The suite `gid`'s group currently runs, if the group is live.
    pub fn suite_of(&self, gid: GroupId) -> Option<SuiteId> {
        self.shards[self.shard_of(gid)]
            .groups
            .get(&gid)
            .map(|s| s.suite)
    }

    /// Live groups per suite — the mixed-fleet view a `Cheapest` policy
    /// produces.
    pub fn groups_per_suite(&self) -> BTreeMap<SuiteId, u64> {
        let mut mixed = BTreeMap::new();
        for shard in &self.shards {
            for state in shard.groups.values() {
                *mixed.entry(state.suite).or_insert(0) += 1;
            }
        }
        mixed
    }
}
