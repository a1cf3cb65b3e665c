//! A worker shard: exclusive owner of a subset of the service's groups,
//! and a **scheduler** (not a driver) for their rekeys.
//!
//! Groups are placed on shards by jump consistent hashing; each shard is
//! driven single-threaded over its own groups during an epoch tick (the
//! service fans shards — not groups — across threads), so group state
//! needs no locking and epoch results are deterministic regardless of how
//! the OS schedules the shard threads.
//!
//! Within a tick the shard no longer runs each group's rekey to
//! completion before touching the next: every pending group's protocol
//! step is a sans-IO [`egka_core::machine`] execution, and
//! [`Shard::run_epoch`] **interleaves** them round-robin, pumping each
//! group's machines as far as they go without blocking. A group whose
//! member is powered off simply stops making progress; the scheduler
//! detects the stall (a pump sweep with zero movement on a private medium
//! is permanent), charges the wasted transmissions, retries lossy-medium
//! stalls with fresh randomness, and finally times the group out — while
//! every other group on the shard completes in the same epoch. That
//! per-group isolation under faults is the liveness property
//! `tests/liveness.rs` pins.

use std::collections::BTreeMap;
use std::time::Instant;

use egka_core::machine::Faults;
use egka_core::suite::{suite, StepCtx, SuiteId, SuiteRun};
use egka_core::{GroupSession, Pkg, Pump, RadioSpec, UserId};
use egka_energy::OpCounts;
use egka_medium::{BatteryBank, RadioProfile};

use egka_trace::{Event, Payload, Phase, StallCause, StepTrace, CONTROL_TID, EPOCH_NS, SWEEP_NS};

use crate::event::{GroupId, MembershipEvent, RejectReason};
use crate::health::StallEvent;
use crate::metrics::EpochReport;
use crate::persist::Sealer;
use crate::plan::{plan_group_suite, CostModel, RekeyPlan, RekeyStep, SuitePolicy};

/// One managed group.
#[derive(Clone, Debug)]
pub struct GroupState {
    /// The live session (members, shares, current key). Private so that
    /// every change goes through [`GroupState::set_session`], which drops
    /// the sealed blob.
    session: GroupSession,
    /// The GKA suite this group runs ([`crate::SuitePolicy`] chose it at
    /// creation; a `Cheapest` policy may migrate it at a full rekey).
    pub suite: SuiteId,
    /// Epoch at which the group was created.
    pub created_epoch: u64,
    /// Rekeys this group has been through.
    pub rekeys: u64,
    /// `session` sealed under the store's key, filled by the first
    /// snapshot (or handoff) after the session last changed. A seal is a
    /// function of the group id and the session, so a blob stays valid
    /// until the session changes.
    sealed: Option<Box<[u8]>>,
}

impl GroupState {
    /// A group with nothing sealed yet.
    pub(crate) fn new(
        session: GroupSession,
        suite: SuiteId,
        created_epoch: u64,
        rekeys: u64,
    ) -> Self {
        GroupState {
            session,
            suite,
            created_epoch,
            rekeys,
            sealed: None,
        }
    }

    /// The live session.
    pub fn session(&self) -> &GroupSession {
        &self.session
    }

    /// Replaces the session and drops the blob sealed from the old one.
    pub(crate) fn set_session(&mut self, session: GroupSession) {
        self.session = session;
        self.sealed = None;
    }

    /// The session sealed under `sealer`: the cached blob if the session
    /// has not changed since it was sealed, else a fresh seal, cached.
    /// Debug builds re-seal on every cache hit and check the bytes, so a
    /// session change that bypassed [`GroupState::set_session`] fails
    /// loudly.
    pub(crate) fn sealed(&mut self, gid: GroupId, sealer: &Sealer) -> &[u8] {
        match &self.sealed {
            Some(blob) => debug_assert_eq!(
                **blob,
                *sealer.seal(gid, &self.session),
                "group {gid}: cached seal is stale"
            ),
            None => self.sealed = Some(sealer.seal(gid, &self.session)),
        }
        self.sealed.as_deref().expect("filled above")
    }

    /// The cached blob, if the session has been sealed since it last
    /// changed.
    pub(crate) fn cached_seal(&self) -> Option<&[u8]> {
        self.sealed.as_deref()
    }

    /// Caches `blob` as the seal of the current session. The caller
    /// vouches for it: a handoff installs the blob the session was just
    /// unsealed from.
    pub(crate) fn cache_seal(&mut self, blob: Box<[u8]>) {
        self.sealed = Some(blob);
    }
}

/// Deterministic 64-bit mixing for per-group / per-step seeds
/// (re-exported from the suite layer so schedulers and suites share one
/// derivation chain).
pub(crate) use egka_core::suite::mix;

/// The radio half of an epoch context: the hardware/channel profile every
/// step's medium is built from, and the shared battery bank the drain
/// accumulates in.
pub(crate) struct RadioEpoch {
    pub profile: RadioProfile,
    pub bank: BatteryBank,
}

/// Epoch-wide execution context handed to every shard.
pub(crate) struct EpochCtx<'a> {
    pub pkg: &'a Pkg,
    pub cost: &'a CostModel,
    /// Suite-selection policy (consulted at full-rekey plans).
    pub policy: &'a SuitePolicy,
    pub epoch: u64,
    pub service_seed: u64,
    /// Network faults injected into every protocol step's medium.
    pub loss: f64,
    pub detached: &'a [UserId],
    /// Retransmission budget for loss-stalled steps before the group is
    /// timed out for the epoch.
    pub step_retries: u32,
    /// When set, every protocol step runs over a virtual-time radio
    /// instead of the instant medium.
    pub radio: Option<&'a RadioEpoch>,
    /// This shard's trace pid lane (shard index + 1; the coordinator is
    /// pid 0).
    pub pid: u32,
    /// Whether the service records traces — shards buffer events locally
    /// and the coordinator drains the buffers in shard order, so the
    /// recorded stream is deterministic despite the parallel fan-out.
    pub trace_enabled: bool,
}

impl EpochCtx<'_> {
    fn faults_for(&self, step_seed: u64) -> Faults {
        Faults {
            loss: self.loss,
            loss_seed: mix(step_seed, 0x105e),
            detached: self.detached.to_vec(),
            radio: self.radio.map(|r| RadioSpec {
                profile: r.profile.clone(),
                seed: mix(step_seed, 0xad10),
                bank: Some(r.bank.clone()),
            }),
            trace: None,
        }
    }

    /// Whether `u` is unreachable for this epoch: explicitly powered off,
    /// or battery-dead on the radio.
    fn is_down(&self, u: UserId) -> bool {
        self.detached.contains(&u) || self.radio.is_some_and(|r| r.bank.is_dead(u.0))
    }
}

/// One group's epoch work: its plan, working session, and progress. The
/// in-flight step is a protocol-erased [`SuiteRun`] — the shard schedules
/// pumps and accounts outcomes without knowing which of the five suites
/// is running.
struct ActiveGroup {
    gid: GroupId,
    original_events: Vec<MembershipEvent>,
    plan: RekeyPlan,
    step_idx: usize,
    runner: Option<Box<dyn SuiteRun>>,
    retries: u32,
    session: GroupSession,
    ops: OpCounts,
    rekeys: u64,
    gka_runs: u64,
    started: Instant,
    /// Virtual radio milliseconds spent on this group's epoch so far —
    /// completed steps plus aborted (retransmitted) attempts.
    virtual_ms: f64,
    dissolved: bool,
    done: bool,
    failed: bool,
    /// Shared buffer the in-flight step's executor and radio report into
    /// (when tracing); drained after the step settles.
    trace: Option<StepTrace>,
    /// The group's position on its trace lane: where the next step span
    /// begins.
    lane_ns: u64,
}

/// A shard: groups + their pending event queues.
#[derive(Default)]
pub(crate) struct Shard {
    pub groups: BTreeMap<GroupId, GroupState>,
    pub pending: BTreeMap<GroupId, Vec<MembershipEvent>>,
    /// This shard's epoch delta from the last `run_epoch`, folded by the
    /// coordinator after the parallel fan-out joins.
    pub scratch: EpochReport,
    /// Trace events buffered during the last `run_epoch`, drained by the
    /// coordinator in shard order after the join.
    pub scratch_trace: Vec<Event>,
}

impl Shard {
    /// Seals every group whose session changed since its last seal; the
    /// others keep their blobs. A snapshot runs this on every shard in
    /// parallel, then only copies blobs.
    pub fn seal_groups(&mut self, sealer: &Sealer) {
        for (&gid, g) in &mut self.groups {
            g.sealed(gid, sealer);
        }
    }

    /// Executes one epoch over this shard's groups: drain each non-empty
    /// queue, collapse it into a [`RekeyPlan`], then **interleave** every
    /// plan's protocol steps round-robin until each group completes,
    /// stalls out, or dissolves. Deterministic given (state, seed, fault
    /// plan). A group's epoch is atomic: its session and its plan's event
    /// accounting commit only if every step completes; a timed-out group
    /// keeps its pre-epoch key and its events are requeued for the next
    /// tick.
    pub fn run_epoch(&mut self, ctx: &EpochCtx<'_>) {
        let mut report = EpochReport::default();
        let mut tr: Vec<Event> = Vec::new();
        let slot = ctx.epoch * EPOCH_NS;
        let queues: Vec<(GroupId, Vec<MembershipEvent>)> = std::mem::take(&mut self.pending)
            .into_iter()
            .filter(|(_, q)| !q.is_empty())
            .collect();

        // ---- Plan every group's epoch ----
        let plan_started = Instant::now();
        let mut active: Vec<ActiveGroup> = Vec::new();
        for (gid, events) in queues {
            let Some(state) = self.groups.get(&gid) else {
                // Group dissolved/merged away after the events were queued.
                report.events_rejected += events.len() as u64;
                report.rejections.extend(
                    events
                        .into_iter()
                        .map(|ev| (gid, ev, RejectReason::GroupGone)),
                );
                continue;
            };
            report.groups_touched += 1;
            let plan =
                plan_group_suite(state.session(), &events, ctx.cost, state.suite, ctx.policy);
            if plan.steps.is_empty() {
                // Nothing to execute (e.g. a cancelled join/leave pair):
                // the plan's accounting commits immediately.
                if ctx.trace_enabled {
                    tr.push(
                        Event::new(
                            Phase::Instant,
                            slot,
                            ctx.pid,
                            egka_trace::group_tid(gid),
                            "plan.cancelled",
                        )
                        .with(Payload::Plan {
                            suite: plan.suite.key(),
                            steps: 0,
                        }),
                    );
                }
                fold_plan_accounting(&mut report, gid, &plan);
                continue;
            }
            if ctx.trace_enabled {
                tr.push(
                    Event::new(
                        Phase::Begin,
                        slot,
                        ctx.pid,
                        egka_trace::group_tid(gid),
                        "group.epoch",
                    )
                    .with(Payload::Plan {
                        suite: plan.suite.key(),
                        steps: plan.steps.len() as u32,
                    }),
                );
            }
            active.push(ActiveGroup {
                gid,
                original_events: events,
                plan,
                step_idx: 0,
                runner: None,
                retries: 0,
                session: state.session().clone(),
                ops: OpCounts::new(),
                rekeys: 0,
                gka_runs: 0,
                started: Instant::now(),
                virtual_ms: 0.0,
                dissolved: false,
                done: false,
                failed: false,
                trace: None,
                lane_ns: slot,
            });
        }
        report.phases.plan.wall += plan_started.elapsed();

        if ctx.trace_enabled {
            tr.insert(
                0,
                Event::new(Phase::Begin, slot, ctx.pid, CONTROL_TID, "shard.epoch").with(
                    Payload::Epoch {
                        epoch: ctx.epoch,
                        groups: active.len() as u64,
                    },
                ),
            );
        }

        // ---- Interleave: one pump per unfinished group per sweep ----
        let exec_started = Instant::now();
        while active.iter().any(|g| !g.done) {
            for g in active.iter_mut().filter(|g| !g.done) {
                self.advance_group(g, ctx, &mut report, &mut tr);
            }
        }
        report.phases.execute.wall += exec_started.elapsed();

        // ---- Commit ----
        let commit_started = Instant::now();
        let mut lane_end = slot;
        for g in active {
            let step_energy_mj = ctx.cost.price_mj(&g.ops);
            if ctx.trace_enabled {
                lane_end = lane_end.max(g.lane_ns);
                tr.push(
                    Event::new(
                        Phase::End,
                        g.lane_ns,
                        ctx.pid,
                        egka_trace::group_tid(g.gid),
                        "group.epoch",
                    )
                    .with(Payload::Rekey {
                        suite: g.plan.suite.key(),
                        rekeys: g.rekeys,
                        mj: step_energy_mj,
                    }),
                );
            }
            report.phases.execute.virtual_ms += g.virtual_ms;
            let usage = report.per_suite.entry(g.plan.suite).or_default();
            usage.energy_mj += step_energy_mj;
            if g.failed {
                // Atomic epoch: the group keeps its pre-epoch session and
                // key; its events go back to the head of the queue so the
                // next tick retries them (e.g. once the member re-attaches).
                report.groups_stalled += 1;
                let queue = self.pending.entry(g.gid).or_default();
                let mut requeued = g.original_events;
                requeued.append(queue);
                *queue = requeued;
                // The wasted transmissions and computations are real
                // energy; charge them even though no key changed.
                report.add_ops(&g.ops);
                report.energy_mj += step_energy_mj;
                continue;
            }
            usage.rekeys += g.rekeys;
            fold_plan_accounting(&mut report, g.gid, &g.plan);
            report.rekeys_executed += g.rekeys;
            report.full_gka_runs += g.gka_runs;
            report.add_ops(&g.ops);
            report.energy_mj += step_energy_mj;
            if g.dissolved {
                self.groups.remove(&g.gid);
                report.groups_dissolved += 1;
            } else if g.rekeys > 0 {
                report.rekeyed_groups.push(g.gid);
                let state = self.groups.get_mut(&g.gid).expect("active group exists");
                state.set_session(g.session);
                state.rekeys += g.rekeys;
                // A full rekey is where a Cheapest policy migrates the
                // group to the suite it re-keyed under.
                state.suite = g.plan.suite;
                report.rekey_latencies.push(g.started.elapsed());
                if ctx.radio.is_some() {
                    report.rekey_latencies_virtual_ms.push(g.virtual_ms);
                }
            }
        }
        if ctx.trace_enabled {
            tr.push(
                Event::new(Phase::End, lane_end, ctx.pid, CONTROL_TID, "shard.epoch").with(
                    Payload::Epoch {
                        epoch: ctx.epoch,
                        groups: report.groups_touched,
                    },
                ),
            );
        }
        report.phases.commit.wall += commit_started.elapsed();
        self.scratch = report;
        self.scratch_trace = tr;
    }

    /// Gives `g` one scheduling quantum: materialize its current step's
    /// execution if needed, pump it, and handle completion / stall.
    fn advance_group(
        &self,
        g: &mut ActiveGroup,
        ctx: &EpochCtx<'_>,
        report: &mut EpochReport,
        tr: &mut Vec<Event>,
    ) {
        let group_seed = mix(mix(ctx.service_seed, g.gid), ctx.epoch);
        let lane = egka_trace::group_tid(g.gid);

        // Materialize the runner for the current step.
        if g.runner.is_none() {
            let step = &g.plan.steps[g.step_idx];
            if matches!(step, RekeyStep::Dissolve) {
                if ctx.trace_enabled {
                    tr.push(Event::new(
                        Phase::Instant,
                        g.lane_ns,
                        ctx.pid,
                        lane,
                        "dissolve",
                    ));
                }
                g.dissolved = true;
                g.done = true;
                return;
            }
            let base_seed = mix(group_seed, g.step_idx as u64 + 1);
            let step_seed = if g.retries == 0 {
                base_seed
            } else {
                // Fresh randomness per retransmission attempt.
                mix(base_seed, 0x7e70 + u64::from(g.retries))
            };
            if ctx.trace_enabled {
                if g.retries == 0 {
                    // One span per plan step; retry attempts stay inside it
                    // (their rounds and retry instants tell the story).
                    tr.push(
                        Event::new(Phase::Begin, g.lane_ns, ctx.pid, lane, step_name(step)).with(
                            Payload::Step {
                                suite: g.plan.suite.key(),
                                step: g.step_idx as u32,
                                retries: 0,
                                vms: 0.0,
                                bits: 0,
                                mj: 0.0,
                            },
                        ),
                    );
                }
                g.trace = Some(StepTrace::new(ctx.pid, g.gid, g.lane_ns));
            }
            g.runner = Some(build_step(
                ctx,
                g.plan.suite,
                &g.session,
                step,
                step_seed,
                g.trace.clone(),
            ));
        }

        let runner = g.runner.as_mut().expect("materialized above");
        match runner.pump() {
            Pump::Progressed => {}
            Pump::Done => {
                let finished = g.runner.take().expect("pumped");
                let step_vms = finished.virtual_elapsed_ms();
                g.virtual_ms += step_vms;
                let out = finished.finish();
                let mut sc = OpCounts::new();
                for node in &out.reports {
                    sc.merge(&node.counts);
                }
                if ctx.trace_enabled {
                    drain_step_trace(g, tr);
                    tr.push(
                        Event::new(
                            Phase::End,
                            g.lane_ns,
                            ctx.pid,
                            lane,
                            step_name(&g.plan.steps[g.step_idx]),
                        )
                        .with(Payload::Step {
                            suite: g.plan.suite.key(),
                            step: g.step_idx as u32,
                            retries: g.retries,
                            vms: step_vms,
                            bits: sc.tx_bits,
                            mj: ctx.cost.price_mj(&sc),
                        }),
                    );
                }
                g.ops.merge(&sc);
                g.session = out.session;
                g.rekeys += 1;
                g.gka_runs += out.gka_runs;
                g.retries = 0;
                g.step_idx += 1;
                if g.step_idx == g.plan.steps.len() {
                    g.done = true;
                }
            }
            Pump::Stalled | Pump::Failed(_) => {
                // On a private per-group medium a zero-progress sweep is
                // permanent: every machine is blocked and nothing is in
                // flight. Charge the aborted attempt (its energy *and* its
                // radio time) and retry or give up.
                let aborted = g.runner.take().expect("pumped");
                g.ops.merge(&aborted.partial_counts());
                g.virtual_ms += aborted.virtual_elapsed_ms();
                let detached_member = group_touches_detached(g, ctx);
                let cause = if !detached_member {
                    StallCause::Loss
                } else if ctx.detached.is_empty() {
                    StallCause::BatteryDead
                } else {
                    StallCause::Detached
                };
                if ctx.trace_enabled {
                    drain_step_trace(g, tr);
                    tr.push(
                        Event::new(Phase::Instant, g.lane_ns, ctx.pid, lane, "stall")
                            .with(Payload::Stall { cause }),
                    );
                }
                if !detached_member && g.retries < ctx.step_retries {
                    g.retries += 1;
                    report.steps_retried += 1;
                    // Runner rebuilds with a salted seed next quantum.
                    if ctx.trace_enabled {
                        tr.push(
                            Event::new(Phase::Instant, g.lane_ns, ctx.pid, lane, "retry")
                                .with(Payload::Retry { attempt: g.retries }),
                        );
                    }
                } else {
                    report.rekeys_failed += 1;
                    report.stall_events.push(StallEvent {
                        group: g.gid,
                        cause,
                        culprits: down_members(g, ctx),
                    });
                    g.failed = true;
                    g.done = true;
                    if ctx.trace_enabled {
                        // Balance the step span even though it went nowhere.
                        tr.push(
                            Event::new(
                                Phase::End,
                                g.lane_ns,
                                ctx.pid,
                                lane,
                                step_name(&g.plan.steps[g.step_idx]),
                            )
                            .with(Payload::Step {
                                suite: g.plan.suite.key(),
                                step: g.step_idx as u32,
                                retries: g.retries,
                                vms: g.virtual_ms,
                                bits: 0,
                                mj: 0.0,
                            }),
                        );
                    }
                }
            }
        }
    }
}

/// Settles a step's shared trace buffer back into the shard's event
/// stream: seals any dangling round span, advances the group's lane
/// clock past everything the step emitted, and appends the events.
fn drain_step_trace(g: &mut ActiveGroup, tr: &mut Vec<Event>) {
    if let Some(st) = g.trace.take() {
        st.close();
        g.lane_ns = st.end_ns().max(g.lane_ns + SWEEP_NS);
        tr.extend(st.drain());
    }
}

/// Stable trace-span name for a plan step.
fn step_name(step: &RekeyStep) -> &'static str {
    match step {
        RekeyStep::Partition { .. } => "step.partition",
        RekeyStep::JoinOne { .. } => "step.join_one",
        RekeyStep::MergeNewcomers { .. } => "step.merge_newcomers",
        RekeyStep::FullRekey { .. } => "step.full_rekey",
        RekeyStep::Dissolve => "step.dissolve",
    }
}

/// Whether any member this epoch touches (survivors or arrivals) is
/// unreachable — explicitly detached or battery-dead. Such a group cannot
/// succeed by retrying, so it fails fast instead of burning the
/// retransmission budget.
fn group_touches_detached(g: &ActiveGroup, ctx: &EpochCtx<'_>) -> bool {
    if ctx.detached.is_empty() && ctx.radio.is_none() {
        return false;
    }
    let in_session = g.session.member_ids().iter().any(|&u| ctx.is_down(u));
    let in_plan = g.plan.steps.iter().any(|s| match s {
        RekeyStep::JoinOne { newcomer } => ctx.is_down(*newcomer),
        RekeyStep::MergeNewcomers { newcomers } => newcomers.iter().any(|&u| ctx.is_down(u)),
        RekeyStep::FullRekey { members } => members.iter().any(|&u| ctx.is_down(u)),
        RekeyStep::Partition { .. } | RekeyStep::Dissolve => false,
    });
    in_session || in_plan
}

/// The unreachable members a group's epoch needed — the stall ledger's
/// culprit list. Session members plus the plan's arrivals, filtered to the
/// down set, ascending and deduplicated; empty under pure loss.
fn down_members(g: &ActiveGroup, ctx: &EpochCtx<'_>) -> Vec<UserId> {
    let mut down: Vec<UserId> = g
        .session
        .member_ids()
        .iter()
        .copied()
        .filter(|&u| ctx.is_down(u))
        .collect();
    for s in &g.plan.steps {
        match s {
            RekeyStep::JoinOne { newcomer } => {
                if ctx.is_down(*newcomer) {
                    down.push(*newcomer);
                }
            }
            RekeyStep::MergeNewcomers { newcomers } => {
                down.extend(newcomers.iter().copied().filter(|&u| ctx.is_down(u)));
            }
            RekeyStep::FullRekey { members } => {
                down.extend(members.iter().copied().filter(|&u| ctx.is_down(u)));
            }
            RekeyStep::Partition { .. } | RekeyStep::Dissolve => {}
        }
    }
    down.sort_unstable();
    down.dedup();
    down
}

/// Materializes one plan step as a protocol-erased, pumpable execution of
/// `suite_id` — the single point where a plan meets `dyn Suite`.
fn build_step(
    ctx: &EpochCtx<'_>,
    suite_id: SuiteId,
    session: &GroupSession,
    step: &RekeyStep,
    step_seed: u64,
    trace: Option<StepTrace>,
) -> Box<dyn SuiteRun> {
    let faults_for = move |seed: u64| {
        let mut f = ctx.faults_for(seed);
        f.trace = trace.clone();
        f
    };
    let step_ctx = StepCtx {
        pkg: ctx.pkg,
        seed: step_seed,
        composable_joins: ctx.cost.composable_joins,
        faults_for: &faults_for,
    };
    let s = suite(suite_id);
    match step {
        RekeyStep::Dissolve => unreachable!("dissolve has no protocol execution"),
        RekeyStep::Partition { leavers } => s.partition(&step_ctx, session, leavers),
        RekeyStep::JoinOne { newcomer } => s.join_one(&step_ctx, session, *newcomer),
        RekeyStep::MergeNewcomers { newcomers } => s.merge_newcomers(&step_ctx, session, newcomers),
        RekeyStep::FullRekey { members } => s.full_rekey(&step_ctx, session, members),
    }
}

/// Commits a plan's admission accounting (applied / cancelled / rejected)
/// into the epoch report.
fn fold_plan_accounting(report: &mut EpochReport, gid: GroupId, plan: &RekeyPlan) {
    report.events_applied += plan.events_applied;
    report.events_cancelled += plan.events_cancelled;
    report.events_rejected += plan.rejected.len() as u64;
    report.rejections.extend(
        plan.rejected
            .iter()
            .cloned()
            .map(|(ev, why)| (gid, ev, why)),
    );
}

/// Applies `UserId`-keyed events in arrival order to a plain vector —
/// used by tests to model the expected final membership.
pub fn final_membership(start: &[UserId], events: &[MembershipEvent]) -> Vec<UserId> {
    let mut members: Vec<UserId> = start.to_vec();
    for ev in events {
        match *ev {
            MembershipEvent::Join(u) => {
                if !members.contains(&u) {
                    members.push(u);
                }
            }
            MembershipEvent::Leave(u) => members.retain(|&m| m != u),
            MembershipEvent::MergeWith(_) => {}
        }
    }
    members
}
