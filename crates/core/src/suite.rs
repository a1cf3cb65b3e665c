//! Protocol-erased suites: one object-safe boundary over all five GKA
//! protocols.
//!
//! The paper's argument is comparative — the proposed GQ-batch scheme vs
//! the SOK/ECDSA/DSA-authenticated BD baselines and the SSN ID-based
//! scheme, priced per hardware profile. This module makes that comparison
//! *executable at the service layer*: a [`Suite`] packages one protocol's
//!
//! * **run constructors** — the initial GKA and the §7 dynamics (Join,
//!   Partition, batched-join Merge, cross-group Merge), each returned as a
//!   boxed [`SuiteRun`] whose nodes are sans-IO
//!   [`crate::machine::RoundMachine`]s pumped by a scheduler;
//! * **closed-form complexity hooks** — group-total [`OpCounts`] from
//!   `egka_energy::complexity`, the same shapes the instrumented runs are
//!   asserted to match, so a planner can price a suite without running it.
//!
//! Behind `dyn Suite`, `egka-service` runs *any* of the five protocols per
//! group and its planner can pick the cheapest suite for the hardware at
//! hand (see `egka_service::SuitePolicy`).
//!
//! ## Dynamics realization
//!
//! Only the proposed scheme has native §7 dynamics
//! ([`Suite::native_dynamics`]). The baselines follow the paper's own
//! baseline convention: **every membership change re-runs the whole
//! protocol** over the final membership — which is exactly what their
//! closed-form hooks price, and what makes Table 5's 10–100× headline
//! reproducible at the service layer.
//!
//! What a member carries survives the re-run. Its credential — the GQ ID
//! key the proposed suite and SSN sign with, or a baseline's SOK key or
//! ECDSA/DSA key pair and certificate — is issued once by the PKG
//! ([`Pkg::credential`]) and travels with the member in its `MemberState`
//! (a merge takes them from both sessions), so a step issues credentials
//! only for the ids that arrive with it, and only of the scheme it signs
//! with: a BD+ECDSA step extracts no GQ key. A proposed Merge that folds a
//! baseline group in extracts its members' GQ keys, since any member of
//! the merged ring may sign a later step.
//!
//! ```
//! use egka_core::suite::{suite, SuiteId, StepCtx};
//! use egka_core::{Faults, Pkg, Pump, SecurityProfile, UserId};
//! use egka_hash::ChaChaRng;
//! use rand::SeedableRng;
//!
//! let mut rng = ChaChaRng::seed_from_u64(7);
//! let pkg = Pkg::setup(&mut rng, SecurityProfile::Toy);
//! let members: Vec<UserId> = (0..4).map(UserId).collect();
//! let faults_for = |_seed: u64| Faults::none();
//! let ctx = StepCtx { pkg: &pkg, seed: 42, composable_joins: true, faults_for: &faults_for };
//!
//! // The same call shape drives any of the five protocols.
//! for id in [SuiteId::Proposed, SuiteId::Ssn] {
//!     let mut run = suite(id).initial(&ctx, pkg.params(), &members);
//!     while run.pump() == Pump::Progressed {}
//!     let out = run.finish();
//!     assert_eq!(out.session.member_ids(), members);
//! }
//! ```

use std::borrow::Cow;
use std::sync::Arc;

use egka_energy::complexity::{
    proposed_join, proposed_merge, proposed_partition, InitialProtocol, RoleCounts,
};
use egka_energy::{CompOp, OpCounts, Scheme};

use crate::authbd::{AuthBdRun, AuthKit};
use crate::dynamics::{JoinRun, LeaveRun, MergeRun};
use crate::group::{GroupSession, MemberState};
use crate::ident::UserId;
use crate::machine::{Faults, Pump};
use crate::params::{Credential, Params, Pkg};
use crate::proposed::{GkaRun, NodeReport, RunConfig};
use crate::ssn::SsnRun;

/// Deterministic 64-bit mixing for derived seeds (splitmix64 finalizer).
/// Every scheduler-side seed chain (per-group, per-step, per-retry) is
/// built from this one function, so suites and schedulers derive identical
/// streams.
pub fn mix(a: u64, b: u64) -> u64 {
    let mut z = a ^ b.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Stable identity of one GKA suite — the five columns of the paper's
/// Table 1. The discriminant order is the table's column order and is
/// part of the public contract (ties in cost comparisons break toward the
/// earlier column).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SuiteId {
    /// The paper's proposal: BD + GQ batch verification, native §7
    /// dynamics.
    Proposed,
    /// BD authenticated with SOK (pairing) signatures.
    BdSok,
    /// BD authenticated with ECDSA + certificates.
    BdEcdsa,
    /// BD authenticated with DSA + certificates.
    BdDsa,
    /// The Saeednia–Safavi-Naini ID-based scheme.
    Ssn,
}

impl SuiteId {
    /// All suites, Table 1 column order.
    pub const ALL: [SuiteId; 5] = [
        SuiteId::Proposed,
        SuiteId::BdSok,
        SuiteId::BdEcdsa,
        SuiteId::BdDsa,
        SuiteId::Ssn,
    ];

    /// The Table 1 column this suite instantiates.
    pub fn protocol(self) -> InitialProtocol {
        match self {
            SuiteId::Proposed => InitialProtocol::ProposedGqBatch,
            SuiteId::BdSok => InitialProtocol::BdSok,
            SuiteId::BdEcdsa => InitialProtocol::BdEcdsa,
            SuiteId::BdDsa => InitialProtocol::BdDsa,
            SuiteId::Ssn => InitialProtocol::Ssn,
        }
    }

    /// Short machine-friendly key (`proposed`, `bd_sok`, …).
    pub fn key(self) -> &'static str {
        self.protocol().key()
    }

    /// Column header as printed in the paper.
    pub fn name(self) -> &'static str {
        self.protocol().name()
    }

    /// Parses a [`SuiteId::key`] back into the id.
    pub fn from_key(key: &str) -> Option<SuiteId> {
        SuiteId::ALL.into_iter().find(|s| s.key() == key)
    }

    /// Stable one-byte code for persisted state (never reorder: stored
    /// snapshots reference these values).
    pub fn code(self) -> u8 {
        match self {
            SuiteId::Proposed => 0,
            SuiteId::BdSok => 1,
            SuiteId::BdEcdsa => 2,
            SuiteId::BdDsa => 3,
            SuiteId::Ssn => 4,
        }
    }

    /// Parses a [`SuiteId::code`] back into the id.
    pub fn from_code(code: u8) -> Option<SuiteId> {
        SuiteId::ALL.into_iter().find(|s| s.code() == code)
    }
}

/// Per-step execution context a scheduler hands to a suite's run
/// constructors.
pub struct StepCtx<'a> {
    /// The PKG that issues the credentials of members no session holds
    /// yet.
    pub pkg: &'a Pkg,
    /// The (retry-salted) step seed: all of the step's randomness derives
    /// from it via [`mix`].
    pub seed: u64,
    /// Whether proposed Joins run in composable mode (`z'_1`
    /// disseminated — see `egka_core::dynamics`).
    pub composable_joins: bool,
    /// Maps a derived seed to the fault plan (loss/detachment/radio) its
    /// medium runs under — the scheduler owns loss salting, the suite owns
    /// how many media a step needs (a batched join needs two).
    pub faults_for: &'a dyn Fn(u64) -> Faults,
}

impl StepCtx<'_> {
    /// The fault plan for the step's primary medium.
    pub fn faults(&self) -> Faults {
        (self.faults_for)(self.seed)
    }
}

/// Outcome of a completed [`SuiteRun`].
pub struct SuiteOutcome {
    /// Per-node reports (keys + instrumented counts) of every protocol
    /// execution the step ran, concatenated.
    pub reports: Vec<NodeReport>,
    /// The resulting group session.
    pub session: GroupSession,
    /// Full initial-GKA executions among them (fallbacks and the newcomer
    /// half of a batched join).
    pub gka_runs: u64,
}

/// One in-flight, pumpable protocol step — the object-safe handle a
/// scheduler interleaves. Each implementation wraps one or more
/// [`crate::machine::Execution`]s of per-node [`crate::RoundMachine`]s.
pub trait SuiteRun: Send {
    /// One non-blocking scheduling sweep; see
    /// [`crate::machine::Execution::pump`].
    fn pump(&mut self) -> Pump;

    /// True iff every machine of every execution finished.
    fn is_done(&self) -> bool;

    /// Ops + traffic spent so far — what a scheduler charges for an
    /// aborted (stalled / timed-out) attempt.
    fn partial_counts(&self) -> OpCounts;

    /// Virtual radio milliseconds consumed so far (0 on the instant
    /// medium), completed sub-executions included.
    fn virtual_elapsed_ms(&self) -> f64;

    /// Assembles the outcome.
    ///
    /// # Panics
    /// Panics if the run has not finished.
    fn finish(self: Box<Self>) -> SuiteOutcome;
}

/// Implements [`SuiteRun`] for a step run over one `exec`
/// ([`crate::machine::Execution`]) field, with `gka_runs` full initial-GKA
/// executions: the step's surface is its execution's, and `finish` maps
/// the step to its `(reports, session)`.
macro_rules! suite_run_over_exec {
    ($run:ty, $gka_runs:expr, |$step:ident| $finish:block) => {
        impl $crate::suite::SuiteRun for $run {
            fn pump(&mut self) -> $crate::machine::Pump {
                self.exec.pump()
            }

            fn is_done(&self) -> bool {
                self.exec.is_done()
            }

            fn partial_counts(&self) -> egka_energy::OpCounts {
                self.exec.partial_counts()
            }

            fn virtual_elapsed_ms(&self) -> f64 {
                self.exec.virtual_now_ms().unwrap_or(0.0)
            }

            fn finish(self: Box<Self>) -> $crate::suite::SuiteOutcome {
                let $step = *self;
                let (reports, session) = $finish;
                $crate::suite::SuiteOutcome {
                    reports,
                    session,
                    gka_runs: $gka_runs,
                }
            }
        }
    };
}
pub(crate) use suite_run_over_exec;

/// One GKA protocol behind a uniform, object-safe surface: run
/// constructors for the initial agreement and every §7 dynamic, plus the
/// closed-form group-total costs the planner prices them with.
///
/// Implementations are stateless; get them from [`suite`].
pub trait Suite: Send + Sync {
    /// Stable identity.
    fn id(&self) -> SuiteId;

    /// Whether the suite has native §7 dynamics. When `false`, the
    /// dynamic constructors realize every membership change as a full
    /// re-run over the final membership (the paper's baseline convention),
    /// and a planner should collapse a whole event batch into one
    /// full rekey.
    fn native_dynamics(&self) -> bool {
        self.id() == SuiteId::Proposed
    }

    // ---- run constructors ----

    /// The initial GKA over `members` (credentials issued by `ctx.pkg`).
    fn initial(&self, ctx: &StepCtx<'_>, params: &Params, members: &[UserId]) -> Box<dyn SuiteRun>;

    /// One newcomer joins `session`.
    fn join_one(
        &self,
        ctx: &StepCtx<'_>,
        session: &GroupSession,
        newcomer: UserId,
    ) -> Box<dyn SuiteRun>;

    /// `leavers` depart `session` in one reduced rekey (a single leaver
    /// degenerates to the Leave protocol).
    fn partition(
        &self,
        ctx: &StepCtx<'_>,
        session: &GroupSession,
        leavers: &[UserId],
    ) -> Box<dyn SuiteRun>;

    /// `k ≥ 2` newcomers join `session` as a batch (proposed: newcomers
    /// run their own initial GKA, then one Merge).
    fn merge_newcomers(
        &self,
        ctx: &StepCtx<'_>,
        session: &GroupSession,
        newcomers: &[UserId],
    ) -> Box<dyn SuiteRun>;

    /// Two agreed groups fold into one (`host` ring first).
    fn merge_groups(
        &self,
        ctx: &StepCtx<'_>,
        host: &GroupSession,
        other: &GroupSession,
    ) -> Box<dyn SuiteRun>;

    /// Full re-run of the initial GKA over `members` (the planner's
    /// fallback step): [`Suite::initial`], except that every member of
    /// `session` keeps the credential it carries for the suite's scheme
    /// and only the others are issued one.
    fn full_rekey(
        &self,
        ctx: &StepCtx<'_>,
        session: &GroupSession,
        members: &[UserId],
    ) -> Box<dyn SuiteRun>;

    // ---- closed-form complexity hooks (group totals) ----

    /// Per-user closed-form counts of the initial GKA at size `n`
    /// (Table 1 column evaluated at `n`).
    fn initial_per_user(&self, n: u64) -> OpCounts {
        self.id().protocol().per_user_counts(n)
    }

    /// Group-total closed-form cost of the initial GKA at size `n`.
    fn initial_total(&self, n: u64) -> OpCounts {
        let mut total = OpCounts::new();
        total.merge_scaled(&self.initial_per_user(n), n);
        total
    }

    /// Group-total closed-form cost of one Join at current size `n`.
    /// Baselines: one full re-run at `n + 1`.
    fn join_total(&self, n: u64, _composable: bool) -> OpCounts {
        self.initial_total(n + 1)
    }

    /// Group-total closed-form cost of `k` sequential Joins starting at
    /// size `n`. Baselines apply a batch as one re-run at `n + k` — for
    /// them this equals [`Suite::batch_join_total`] by construction.
    fn sequential_joins_total(&self, n: u64, k: u64, _composable: bool) -> OpCounts {
        self.initial_total(n + k)
    }

    /// Group-total closed-form cost of the batched-join plan for `k ≥ 2`
    /// newcomers at size `n`.
    fn batch_join_total(&self, n: u64, k: u64) -> OpCounts {
        assert!(k >= 2, "batch path needs at least two newcomers");
        self.initial_total(n + k)
    }

    /// Group-total closed-form cost of a Partition removing `ld` of `n`
    /// members with `v` refreshers. Baselines: one full re-run over the
    /// `n − ld` survivors.
    fn partition_total(&self, n: u64, ld: u64, _v: u64) -> OpCounts {
        self.initial_total(n - ld)
    }

    /// Group-total closed-form cost of merging groups of size `n` and
    /// `m`. Baselines: one full re-run at `n + m`.
    fn merge_total(&self, n: u64, m: u64) -> OpCounts {
        self.initial_total(n + m)
    }

    /// Group-total closed-form cost of a full rekey at size `n`.
    fn full_rekey_total(&self, n: u64) -> OpCounts {
        self.initial_total(n)
    }
}

/// The suite registry: the five Table 1 columns as `&'static dyn Suite`.
pub fn suite(id: SuiteId) -> &'static dyn Suite {
    match id {
        SuiteId::Proposed => &ProposedSuite,
        SuiteId::BdSok => &BaselineSuite(SuiteId::BdSok),
        SuiteId::BdEcdsa => &BaselineSuite(SuiteId::BdEcdsa),
        SuiteId::BdDsa => &BaselineSuite(SuiteId::BdDsa),
        SuiteId::Ssn => &BaselineSuite(SuiteId::Ssn),
    }
}

/// Sums per-role closed-form counts over their populations.
pub fn roles_total(roles: &[RoleCounts]) -> OpCounts {
    let mut total = OpCounts::new();
    for role in roles {
        total.merge_scaled(&role.counts, role.population);
    }
    total
}

/// Each member's `scheme` credential: the one a session in `sessions`
/// already carries, else a fresh issue by the PKG ([`Pkg::credential`]:
/// Extract for GQ, the authority for the rest). Issuing is one-off setup,
/// so a step issues credentials only for the ids that arrive with it (and
/// for every id of a session that carries none of `scheme`: a baseline
/// group switching to the proposed suite, or a baseline session decoded
/// from a snapshot).
fn session_creds(
    pkg: &Pkg,
    scheme: Scheme,
    sessions: &[&GroupSession],
    members: &[UserId],
) -> Vec<Arc<Credential>> {
    members
        .iter()
        .map(|&u| {
            sessions
                .iter()
                .find_map(|s| s.position_of(u).and_then(|i| s.members[i].cred.clone()))
                .filter(|c| c.scheme() == scheme)
                .unwrap_or_else(|| Arc::new(pkg.credential(scheme, u)))
        })
        .collect()
}

/// `session` with every member carrying a credential for `scheme`, by
/// [`session_creds`]'s rule; borrowed when every member already does.
fn carrying<'s>(pkg: &Pkg, scheme: Scheme, session: &'s GroupSession) -> Cow<'s, GroupSession> {
    let carries = |m: &MemberState| m.cred.as_ref().is_some_and(|c| c.scheme() == scheme);
    if session.members.iter().all(carries) {
        return Cow::Borrowed(session);
    }
    let creds = session_creds(pkg, scheme, &[session], &session.member_ids());
    let mut session = session.clone();
    for (member, cred) in session.members.iter_mut().zip(creds) {
        member.cred = Some(cred);
    }
    Cow::Owned(session)
}

// ===================== the proposed suite =====================

/// The paper's proposal (§4 initial GKA + native §7 dynamics).
struct ProposedSuite;

impl Suite for ProposedSuite {
    fn id(&self) -> SuiteId {
        SuiteId::Proposed
    }

    fn initial(&self, ctx: &StepCtx<'_>, params: &Params, members: &[UserId]) -> Box<dyn SuiteRun> {
        let creds = session_creds(ctx.pkg, Scheme::Gq, &[], members);
        Box::new(gka_run(ctx, params, &creds))
    }

    fn full_rekey(
        &self,
        ctx: &StepCtx<'_>,
        session: &GroupSession,
        members: &[UserId],
    ) -> Box<dyn SuiteRun> {
        let creds = session_creds(ctx.pkg, Scheme::Gq, &[session], members);
        Box::new(gka_run(ctx, &session.params, &creds))
    }

    fn join_one(
        &self,
        ctx: &StepCtx<'_>,
        session: &GroupSession,
        newcomer: UserId,
    ) -> Box<dyn SuiteRun> {
        let creds = session_creds(ctx.pkg, Scheme::Gq, &[], &[newcomer]);
        Box::new(JoinRun::new(
            session,
            newcomer,
            &creds[0],
            ctx.seed,
            ctx.composable_joins,
            &ctx.faults(),
        ))
    }

    fn partition(
        &self,
        ctx: &StepCtx<'_>,
        session: &GroupSession,
        leavers: &[UserId],
    ) -> Box<dyn SuiteRun> {
        let positions: std::collections::BTreeSet<usize> = leavers
            .iter()
            .map(|&u| {
                session
                    .position_of(u)
                    .expect("planner only removes live members")
            })
            .collect();
        Box::new(LeaveRun::new(session, &positions, ctx.seed, &ctx.faults()))
    }

    fn merge_newcomers(
        &self,
        ctx: &StepCtx<'_>,
        session: &GroupSession,
        newcomers: &[UserId],
    ) -> Box<dyn SuiteRun> {
        let creds = session_creds(ctx.pkg, Scheme::Gq, &[], newcomers);
        // The merge half's seed (and its loss/radio salt) derives from the
        // step seed, so a retried attempt re-rolls both halves.
        let merge_seed = mix(ctx.seed, 0x6d);
        Box::new(ProposedMergeNewcomers {
            gka: Some(gka_run(ctx, &session.params, &creds)),
            merge: None,
            base: session.clone(),
            merge_seed,
            merge_faults: (ctx.faults_for)(merge_seed),
            carried: OpCounts::new(),
            carried_reports: Vec::new(),
            carried_virtual_ms: 0.0,
        })
    }

    fn merge_groups(
        &self,
        ctx: &StepCtx<'_>,
        host: &GroupSession,
        other: &GroupSession,
    ) -> Box<dyn SuiteRun> {
        // Either group may come from a baseline suite; every member of the
        // merged ring may sign a later step, so all of them carry GQ keys.
        let host = carrying(ctx.pkg, Scheme::Gq, host);
        let other = carrying(ctx.pkg, Scheme::Gq, other);
        Box::new(MergeRun::new(&host, &other, ctx.seed, &ctx.faults()))
    }

    fn join_total(&self, n: u64, composable: bool) -> OpCounts {
        let mut total = roles_total(&proposed_join(n));
        if composable {
            // U_1 computes and ships z'_1 inside m'_1: one extra
            // exponentiation, +Z_BITS on the wire, received by the n−1
            // other old-group members.
            total.add(CompOp::ModExp, 1);
            total.tx_bits += egka_energy::wire::Z_BITS;
            total.rx_bits += egka_energy::wire::Z_BITS * (n - 1);
        }
        total
    }

    fn sequential_joins_total(&self, n: u64, k: u64, composable: bool) -> OpCounts {
        let mut total = OpCounts::new();
        for i in 0..k {
            total.merge(&self.join_total(n + i, composable));
        }
        total
    }

    fn batch_join_total(&self, n: u64, k: u64) -> OpCounts {
        assert!(k >= 2, "batch path needs at least two newcomers");
        let mut total = self.initial_total(k);
        total.merge(&roles_total(&proposed_merge(n, k)));
        total
    }

    fn partition_total(&self, n: u64, ld: u64, v: u64) -> OpCounts {
        roles_total(&proposed_partition(n, ld, v))
    }

    fn merge_total(&self, n: u64, m: u64) -> OpCounts {
        roles_total(&proposed_merge(n, m))
    }
}

/// The proposed initial GKA over the holders of `creds`, on the step's
/// seed and primary medium.
fn gka_run(ctx: &StepCtx<'_>, params: &Params, creds: &[Arc<Credential>]) -> GkaRun {
    GkaRun::new(params, creds, ctx.seed, RunConfig::default(), &ctx.faults())
}

/// The batched join: the newcomers' own initial GKA, then one Merge of the
/// newcomer ring into the group — two executions behind one pumpable run.
struct ProposedMergeNewcomers {
    gka: Option<GkaRun>,
    merge: Option<MergeRun>,
    base: GroupSession,
    merge_seed: u64,
    merge_faults: Faults,
    /// Completed-half counts/reports, so a stall in the merge half still
    /// charges the newcomer GKA.
    carried: OpCounts,
    carried_reports: Vec<NodeReport>,
    carried_virtual_ms: f64,
}

impl SuiteRun for ProposedMergeNewcomers {
    fn pump(&mut self) -> Pump {
        if let Some(gka) = &mut self.gka {
            return match gka.pump() {
                Pump::Done => {
                    let gka = self.gka.take().expect("checked above");
                    self.carried_virtual_ms += gka.virtual_elapsed_ms();
                    let (report, newcomer_session) = gka.finish();
                    for node in &report.nodes {
                        self.carried.merge(&node.counts);
                    }
                    self.carried_reports.extend(report.nodes);
                    self.merge = Some(MergeRun::new(
                        &self.base,
                        &newcomer_session,
                        self.merge_seed,
                        &self.merge_faults,
                    ));
                    Pump::Progressed
                }
                other => other,
            };
        }
        self.merge.as_mut().expect("one half is active").pump()
    }

    fn is_done(&self) -> bool {
        self.merge.as_ref().is_some_and(MergeRun::is_done)
    }

    fn partial_counts(&self) -> OpCounts {
        let mut total = self.carried.clone();
        match (&self.gka, &self.merge) {
            (Some(gka), _) => total.merge(&gka.partial_counts()),
            (None, Some(merge)) => total.merge(&merge.partial_counts()),
            (None, None) => unreachable!("one half is always active"),
        }
        total
    }

    fn virtual_elapsed_ms(&self) -> f64 {
        let active = match (&self.gka, &self.merge) {
            (Some(gka), _) => gka.virtual_elapsed_ms(),
            (None, Some(merge)) => merge.virtual_elapsed_ms(),
            (None, None) => unreachable!("one half is always active"),
        };
        self.carried_virtual_ms + active
    }

    fn finish(mut self: Box<Self>) -> SuiteOutcome {
        let merge = self.merge.take().expect("finish() after both halves");
        let out = merge.finish();
        let mut reports = self.carried_reports;
        reports.extend(out.reports);
        SuiteOutcome {
            reports,
            session: out.session,
            gka_runs: 1,
        }
    }
}

// ===================== the baseline suites =====================

/// An authenticated-BD or SSN baseline: the real protocol for the initial
/// GKA, full re-runs for every dynamic.
struct BaselineSuite(SuiteId);

impl BaselineSuite {
    /// The scheme the suite's members sign with (SSN signs with the GQ
    /// keys).
    fn scheme(&self) -> Scheme {
        match self.0 {
            SuiteId::BdSok => Scheme::Sok,
            SuiteId::BdEcdsa => Scheme::Ecdsa,
            SuiteId::BdDsa => Scheme::Dsa,
            SuiteId::Ssn => Scheme::Gq,
            SuiteId::Proposed => unreachable!("the proposed suite is not a baseline"),
        }
    }

    /// The full protocol run over `members` — the baseline realization of
    /// every step. Members of `sessions` keep the credentials they carry;
    /// only the others are issued one.
    fn rerun(
        &self,
        ctx: &StepCtx<'_>,
        params: &Params,
        sessions: &[&GroupSession],
        members: &[UserId],
    ) -> Box<dyn SuiteRun> {
        assert!(members.len() >= 2, "a group needs at least two members");
        let faults = ctx.faults();
        let scheme = self.scheme();
        let creds = session_creds(ctx.pkg, scheme, sessions, members);
        if scheme == Scheme::Gq {
            return Box::new(SsnRun::new(params, &creds, ctx.seed, &faults));
        }
        let kit = AuthKit::issued(ctx.pkg.authority(), scheme, members, &creds);
        Box::new(AuthBdStep {
            run: AuthBdRun::new(&params.bd, &kit, ctx.seed, &faults, |_, _| false),
            params: params.clone(),
            creds,
        })
    }
}

impl Suite for BaselineSuite {
    fn id(&self) -> SuiteId {
        self.0
    }

    fn initial(&self, ctx: &StepCtx<'_>, params: &Params, members: &[UserId]) -> Box<dyn SuiteRun> {
        self.rerun(ctx, params, &[], members)
    }

    fn full_rekey(
        &self,
        ctx: &StepCtx<'_>,
        session: &GroupSession,
        members: &[UserId],
    ) -> Box<dyn SuiteRun> {
        self.rerun(ctx, &session.params, &[session], members)
    }

    fn join_one(
        &self,
        ctx: &StepCtx<'_>,
        session: &GroupSession,
        newcomer: UserId,
    ) -> Box<dyn SuiteRun> {
        let mut members = session.member_ids();
        members.push(newcomer);
        self.rerun(ctx, &session.params, &[session], &members)
    }

    fn partition(
        &self,
        ctx: &StepCtx<'_>,
        session: &GroupSession,
        leavers: &[UserId],
    ) -> Box<dyn SuiteRun> {
        let members: Vec<UserId> = session
            .member_ids()
            .into_iter()
            .filter(|u| !leavers.contains(u))
            .collect();
        self.rerun(ctx, &session.params, &[session], &members)
    }

    fn merge_newcomers(
        &self,
        ctx: &StepCtx<'_>,
        session: &GroupSession,
        newcomers: &[UserId],
    ) -> Box<dyn SuiteRun> {
        let mut members = session.member_ids();
        members.extend_from_slice(newcomers);
        self.rerun(ctx, &session.params, &[session], &members)
    }

    fn merge_groups(
        &self,
        ctx: &StepCtx<'_>,
        host: &GroupSession,
        other: &GroupSession,
    ) -> Box<dyn SuiteRun> {
        let mut members = host.member_ids();
        members.extend(other.member_ids());
        self.rerun(ctx, &host.params, &[host, other], &members)
    }
}

/// An authenticated-BD baseline step: the run, the parameters its session
/// is assembled over, and the credentials (ring order) its members sign
/// with and carry on.
struct AuthBdStep {
    run: AuthBdRun,
    params: Params,
    creds: Vec<Arc<Credential>>,
}

impl SuiteRun for AuthBdStep {
    fn pump(&mut self) -> Pump {
        self.run.pump()
    }

    fn is_done(&self) -> bool {
        self.run.is_done()
    }

    fn partial_counts(&self) -> OpCounts {
        self.run.partial_counts()
    }

    fn virtual_elapsed_ms(&self) -> f64 {
        self.run.virtual_elapsed_ms().unwrap_or(0.0)
    }

    fn finish(self: Box<Self>) -> SuiteOutcome {
        let (report, session) = self.run.finish_session(&self.params, &self.creds);
        SuiteOutcome {
            reports: report.nodes,
            session,
            gka_runs: 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::SecurityProfile;
    use egka_hash::ChaChaRng;
    use rand::SeedableRng;
    use std::sync::OnceLock;

    fn pkg() -> &'static Pkg {
        static PKG: OnceLock<Pkg> = OnceLock::new();
        PKG.get_or_init(|| {
            let mut rng = ChaChaRng::seed_from_u64(0x5017e);
            Pkg::setup(&mut rng, SecurityProfile::Toy)
        })
    }

    fn run_to_done(run: &mut dyn SuiteRun) {
        loop {
            match run.pump() {
                Pump::Done => return,
                Pump::Progressed => {}
                other => panic!("suite run cannot {other:?} on a reliable medium"),
            }
        }
    }

    fn ctx<'a>(pkg: &'a Pkg, faults_for: &'a dyn Fn(u64) -> Faults, seed: u64) -> StepCtx<'a> {
        StepCtx {
            pkg,
            seed,
            composable_joins: true,
            faults_for,
        }
    }

    #[test]
    fn every_suite_agrees_end_to_end_with_arbitrary_ids() {
        let pkg = pkg();
        // Deliberately non-contiguous identities: suites must address by
        // ring position, not by id value.
        let members: Vec<UserId> = [7u32, 1000, 3, 42].map(UserId).to_vec();
        let faults_for = |_s: u64| Faults::none();
        for id in SuiteId::ALL {
            let c = ctx(pkg, &faults_for, 0x11 ^ id as u64);
            let mut run = suite(id).initial(&c, pkg.params(), &members);
            run_to_done(run.as_mut());
            let out = run.finish();
            assert_eq!(out.session.member_ids(), members, "{}", id.key());
            assert!(
                out.reports.windows(2).all(|w| w[0].key == w[1].key),
                "{}: keys diverged",
                id.key()
            );
            assert_eq!(out.session.key, out.reports[0].key);
            assert_eq!(out.gka_runs, 1);
        }
    }

    #[test]
    fn instrumented_runs_match_the_closed_form_totals() {
        let pkg = pkg();
        let members: Vec<UserId> = (0..5).map(UserId).collect();
        let faults_for = |_s: u64| Faults::none();
        for id in SuiteId::ALL {
            let s = suite(id);
            let c = ctx(pkg, &faults_for, 0x22 ^ id as u64);
            let mut run = s.initial(&c, pkg.params(), &members);
            run_to_done(run.as_mut());
            let out = run.finish();
            let mut measured = OpCounts::new();
            for node in &out.reports {
                measured.merge(&node.counts);
            }
            let expect = s.initial_total(members.len() as u64);
            assert_eq!(measured.exps(), expect.exps(), "{}", id.key());
            assert_eq!(measured.tx_bits, expect.tx_bits, "{}", id.key());
            assert_eq!(measured.rx_bits, expect.rx_bits, "{}", id.key());
            assert_eq!(measured.msgs_tx, expect.msgs_tx, "{}", id.key());
            for scheme in Scheme::ALL {
                assert_eq!(
                    measured.get(CompOp::SignVerify(scheme)),
                    expect.get(CompOp::SignVerify(scheme)),
                    "{}: {scheme:?} verifies",
                    id.key()
                );
            }
        }
    }

    /// [`Pkg::extract`] calls on this thread while `f` runs.
    fn extractions<T>(f: impl FnOnce() -> T) -> (T, u64) {
        let count = || crate::params::EXTRACTIONS.with(std::cell::Cell::get);
        let before = count();
        let out = f();
        (out, count() - before)
    }

    #[test]
    fn steps_reuse_carried_keys_and_extract_only_newcomers() {
        let pkg = pkg();
        let faults_for = |_s: u64| Faults::none();
        let finish = |mut run: Box<dyn SuiteRun>| {
            run_to_done(run.as_mut());
            run.finish().session
        };
        for id in [SuiteId::Proposed, SuiteId::Ssn] {
            let s = suite(id);
            let agreed = |ids: [u32; 3], seed: u64| {
                let members = ids.map(UserId);
                let (session, n) = extractions(|| {
                    finish(s.initial(&ctx(pkg, &faults_for, seed), pkg.params(), &members))
                });
                assert_eq!(n, 3, "{}: an initial GKA extracts every key", id.key());
                session
            };
            let (host, other) = (agreed([1, 2, 3], 0x51), agreed([20, 21, 22], 0x52));

            let ids = [UserId(2), UserId(21), UserId(99)];
            let (creds, n) = extractions(|| session_creds(pkg, Scheme::Gq, &[&host, &other], &ids));
            assert_eq!(n, 1, "only the newcomer is extracted");
            assert!(Arc::ptr_eq(&creds[0], cred_of(&host, UserId(2))));
            assert!(Arc::ptr_eq(&creds[1], cred_of(&other, UserId(21))));
            assert_eq!(creds[2].as_gq(), Some(&pkg.extract(UserId(99))));

            let (merged, n) =
                extractions(|| finish(s.merge_groups(&ctx(pkg, &faults_for, 0x53), &host, &other)));
            assert_eq!((merged.n(), n), (6, 0), "{}", id.key());
            for m in &merged.members {
                let from = if host.contains(m.id) { &host } else { &other };
                assert_eq!(m.gq(), from.members[from.position_of(m.id).unwrap()].gq());
            }

            let members = [UserId(3), UserId(1), UserId(99)];
            let (rekeyed, n) =
                extractions(|| finish(s.full_rekey(&ctx(pkg, &faults_for, 0x54), &host, &members)));
            assert_eq!(n, 1, "{}: one arrival, one extraction", id.key());
            assert_eq!(rekeyed.member_ids(), members);
            assert!(Arc::ptr_eq(
                cred_of(&rekeyed, UserId(3)),
                cred_of(&host, UserId(3))
            ));
            assert!(Arc::ptr_eq(
                cred_of(&rekeyed, UserId(1)),
                cred_of(&host, UserId(1))
            ));
            assert_eq!(rekeyed.members[2].gq(), &pkg.extract(UserId(99)));
        }
    }

    #[test]
    fn baseline_steps_extract_no_gq_key() {
        let pkg = pkg();
        let faults_for = |_s: u64| Faults::none();
        let s = suite(SuiteId::BdEcdsa);
        let finish = |mut run: Box<dyn SuiteRun>| {
            run_to_done(run.as_mut());
            run.finish().session
        };
        let c = |seed| ctx(pkg, &faults_for, seed);
        let ids = |r: std::ops::Range<u32>| r.map(UserId).collect::<Vec<_>>();
        let (host, n) = extractions(|| finish(s.initial(&c(0x71), pkg.params(), &ids(0..4))));
        assert_eq!(n, 0, "initial");
        let (other, _) = extractions(|| finish(s.initial(&c(0x72), pkg.params(), &ids(10..13))));
        let (joined, n) = extractions(|| finish(s.join_one(&c(0x73), &host, UserId(50))));
        assert_eq!((joined.n(), n), (5, 0), "join_one");
        let (parted, n) = extractions(|| finish(s.partition(&c(0x74), &joined, &[UserId(1)])));
        assert_eq!((parted.n(), n), (4, 0), "partition");
        let (merged, n) = extractions(|| finish(s.merge_groups(&c(0x75), &parted, &other)));
        assert_eq!((merged.n(), n), (7, 0), "merge_groups");
        assert!(merged
            .members
            .iter()
            .all(|m| m.cred.as_ref().is_some_and(|c| c.scheme() == Scheme::Ecdsa)));
    }

    #[test]
    fn a_round_trip_through_a_baseline_gets_the_first_gq_key_back() {
        let pkg = pkg();
        let faults_for = |_s: u64| Faults::none();
        let finish = |mut run: Box<dyn SuiteRun>| {
            run_to_done(run.as_mut());
            run.finish().session
        };
        let members: Vec<UserId> = [4u32, 8, 15].map(UserId).to_vec();
        let c = |seed| ctx(pkg, &faults_for, seed);
        let first = finish(suite(SuiteId::Proposed).initial(&c(0x81), pkg.params(), &members));
        let ecdsa = finish(suite(SuiteId::BdEcdsa).full_rekey(&c(0x82), &first, &members));
        assert!(ecdsa
            .members
            .iter()
            .all(|m| m.cred.as_ref().unwrap().as_gq().is_none()));
        let (back, n) =
            extractions(|| finish(suite(SuiteId::Proposed).full_rekey(&c(0x83), &ecdsa, &members)));
        assert_eq!(n, 3, "the baseline carried no GQ key");
        for (a, b) in first.members.iter().zip(&back.members) {
            assert_eq!(a.gq(), b.gq(), "{:?}", a.id);
            assert_eq!(
                b.gq().h_inv(&pkg.params().gq),
                a.gq().h_inv(&pkg.params().gq)
            );
        }
    }

    #[test]
    fn a_proposed_merge_issues_gq_keys_to_members_of_a_baseline_group() {
        let pkg = pkg();
        let faults_for = |_s: u64| Faults::none();
        let finish = |mut run: Box<dyn SuiteRun>| {
            run_to_done(run.as_mut());
            run.finish().session
        };
        let c = |seed| ctx(pkg, &faults_for, seed);
        let ids = |r: std::ops::Range<u32>| r.map(UserId).collect::<Vec<_>>();
        let proposed = suite(SuiteId::Proposed);
        let host = finish(proposed.initial(&c(0x91), pkg.params(), &ids(0..4)));
        let ecdsa = finish(suite(SuiteId::BdEcdsa).initial(&c(0x92), pkg.params(), &ids(10..13)));
        // A baseline group as a snapshot restores it: no credentials.
        let mut bare = ecdsa.clone();
        for m in &mut bare.members {
            m.cred = None;
        }
        for (other, what) in [(&ecdsa, "ECDSA credentials"), (&bare, "no credentials")] {
            for (a, b) in [(&host, other), (other, &host)] {
                let (merged, n) = extractions(|| finish(proposed.merge_groups(&c(0x93), a, b)));
                assert_eq!((merged.n(), n), (7, 3), "{what}: only the baseline members");
                for m in &merged.members {
                    assert_eq!(m.gq(), &pkg.extract(m.id), "{what}: {:?}", m.id);
                    if host.contains(m.id) {
                        assert!(Arc::ptr_eq(cred_of(&merged, m.id), cred_of(&host, m.id)));
                    }
                }
                // A former baseline member controls a later Leave.
                let leavers = [merged.members[0].id, UserId(11)];
                let parted = finish(proposed.partition(&c(0x94), &merged, &leavers));
                assert_eq!(parted.n(), 5, "{what}");
                assert!(parted.invariant_holds(), "{what}");
            }
        }
    }

    /// The credential `session` carries for `id`.
    fn cred_of(session: &GroupSession, id: UserId) -> &Arc<Credential> {
        let m = &session.members[session.position_of(id).expect("a member")];
        m.cred.as_ref().expect("a member carries a credential")
    }

    /// A credential's certificate and secret key, as bytes.
    fn cert_and_key(c: &Credential) -> (Vec<u8>, Vec<u8>) {
        match c {
            Credential::Ecdsa(c) => (c.cert.encode(), c.key.d.to_bytes_be()),
            Credential::Dsa(c) => (c.cert.encode(), c.key.x.to_bytes_be()),
            Credential::Sok(_) | Credential::Gq(_) => unreachable!("certificate schemes only"),
        }
    }

    #[test]
    fn steps_carry_credentials_and_issue_only_for_arrivals() {
        let pkg = pkg();
        let faults_for = |_s: u64| Faults::none();
        let s = suite(SuiteId::BdEcdsa);
        let finish = |mut run: Box<dyn SuiteRun>| {
            run_to_done(run.as_mut());
            run.finish().session
        };
        let agreed = |ids: [u32; 3], seed: u64| {
            finish(s.initial(&ctx(pkg, &faults_for, seed), pkg.params(), &ids.map(UserId)))
        };
        let (host, other) = (agreed([1, 2, 3], 0x61), agreed([20, 21, 22], 0x62));
        let issued = |u: u32| pkg.authority().credential(Scheme::Ecdsa, UserId(u));

        // A merge carries both sides' credentials: the same allocations,
        // not re-issued copies.
        let merged = finish(s.merge_groups(&ctx(pkg, &faults_for, 0x63), &host, &other));
        for m in &merged.members {
            let from = if host.contains(m.id) { &host } else { &other };
            assert!(Arc::ptr_eq(cred_of(&merged, m.id), cred_of(from, m.id)));
        }

        // A rekey with an arrival issues only the arrival's credential.
        let members = [UserId(3), UserId(1), UserId(99)];
        let rekeyed = finish(s.full_rekey(&ctx(pkg, &faults_for, 0x64), &host, &members));
        for u in [UserId(3), UserId(1)] {
            assert!(Arc::ptr_eq(cred_of(&rekeyed, u), cred_of(&host, u)));
        }
        assert_eq!(
            cert_and_key(cred_of(&rekeyed, UserId(99))),
            cert_and_key(&issued(99))
        );

        // A session decoded from its state carries none; its next step
        // re-issues byte-equal credentials.
        let mut w = crate::wire::Writer::new();
        rekeyed.encode_state(&mut w);
        let buf = w.finish();
        let decoded =
            GroupSession::decode_state(&mut crate::wire::Reader::new(&buf), pkg.params()).unwrap();
        assert!(decoded.members.iter().all(|m| m.cred.is_none()));
        let again = finish(s.full_rekey(&ctx(pkg, &faults_for, 0x65), &decoded, &members));
        for u in members {
            assert_eq!(
                cert_and_key(cred_of(&again, u)),
                cert_and_key(cred_of(&rekeyed, u)),
                "{u:?}"
            );
        }

        // A group that switches scheme gets credentials of the new one.
        let dsa = finish(suite(SuiteId::BdDsa).full_rekey(
            &ctx(pkg, &faults_for, 0x66),
            &host,
            &host.member_ids(),
        ));
        for u in host.member_ids() {
            assert_eq!(cred_of(&dsa, u).scheme(), Scheme::Dsa);
            assert_eq!(
                cert_and_key(cred_of(&dsa, u)),
                cert_and_key(&pkg.authority().credential(Scheme::Dsa, u))
            );
        }
    }

    #[test]
    fn baseline_dynamics_are_full_reruns() {
        let pkg = pkg();
        let members: Vec<UserId> = (10..14).map(UserId).collect();
        let faults_for = |_s: u64| Faults::none();
        let s = suite(SuiteId::Ssn);
        let c = ctx(pkg, &faults_for, 0x33);
        let mut run = s.initial(&c, pkg.params(), &members);
        run_to_done(run.as_mut());
        let session = run.finish().session;

        // Join: the new session covers the newcomer, with a fresh key.
        let c2 = ctx(pkg, &faults_for, 0x34);
        let mut join = s.join_one(&c2, &session, UserId(99));
        run_to_done(join.as_mut());
        let joined = join.finish();
        assert_eq!(joined.session.n(), 5);
        assert!(joined.session.contains(UserId(99)));
        assert_ne!(joined.session.key, session.key);
        assert_eq!(joined.gka_runs, 1, "a baseline join is a full re-run");

        // Partition: survivors only.
        let c3 = ctx(pkg, &faults_for, 0x35);
        let mut part = s.partition(&c3, &joined.session, &[UserId(10), UserId(12)]);
        run_to_done(part.as_mut());
        let parted = part.finish();
        assert_eq!(parted.session.n(), 3);
        assert!(!parted.session.contains(UserId(10)));
        assert_ne!(parted.session.key, joined.session.key);
    }

    #[test]
    fn detached_member_stalls_every_suite() {
        let pkg = pkg();
        let members: Vec<UserId> = (0..4).map(UserId).collect();
        let faults_for = |_s: u64| Faults {
            detached: vec![UserId(2)],
            ..Faults::default()
        };
        for id in SuiteId::ALL {
            let c = ctx(pkg, &faults_for, 0x44 ^ id as u64);
            let mut run = suite(id).initial(&c, pkg.params(), &members);
            for _ in 0..64 {
                if run.pump() == Pump::Stalled {
                    break;
                }
            }
            assert_eq!(run.pump(), Pump::Stalled, "{}", id.key());
            assert!(!run.is_done(), "{}", id.key());
            // The healthy members' transmissions are still chargeable.
            assert!(run.partial_counts().msgs_tx >= 3, "{}", id.key());
        }
    }

    #[test]
    fn proposed_closed_forms_match_the_legacy_cost_model_shapes() {
        // The Suite trait's closed forms are the planner's pricing source;
        // pin the proposed suite's against the role tables directly.
        let s = suite(SuiteId::Proposed);
        let manual = {
            let mut t = roles_total(&proposed_join(7));
            t.add(CompOp::ModExp, 1);
            t.tx_bits += egka_energy::wire::Z_BITS;
            t.rx_bits += egka_energy::wire::Z_BITS * 6;
            t
        };
        assert_eq!(s.join_total(7, true), manual);
        assert_eq!(
            s.partition_total(10, 3, 4),
            roles_total(&proposed_partition(10, 3, 4))
        );
        assert_eq!(s.merge_total(8, 3), roles_total(&proposed_merge(8, 3)));
        let mut batch = s.initial_total(2);
        batch.merge(&roles_total(&proposed_merge(6, 2)));
        assert_eq!(s.batch_join_total(6, 2), batch);
    }

    #[test]
    fn suite_id_keys_round_trip() {
        for id in SuiteId::ALL {
            assert_eq!(SuiteId::from_key(id.key()), Some(id));
        }
        assert_eq!(SuiteId::from_key("nope"), None);
    }
}
