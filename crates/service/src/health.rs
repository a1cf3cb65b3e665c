//! Live health & load telemetry: per-shard load stats, the per-member
//! **stall attribution ledger**, the epoch **phase profiler**, and the
//! typed [`HealthReport`].
//!
//! Everything here is *always on* — plain counter arithmetic on the
//! coordinator, no tracing required — so an operator can ask a running
//! service "which shard is hot?" and "which member keeps stalling its
//! group?" without replaying a Perfetto export. The ledger is the data
//! substrate the `egka-robust` eviction planner consumes: `k`
//! consecutive stalled epochs attributed to one member is its eviction
//! trigger.
//!
//! Because evictions are derived from the ledger, it is no longer pure
//! observability: snapshots persist the ledger (and the quarantine box)
//! so a recovered service re-derives the *same* evictions, and the WAL
//! tail replays the rest.

use std::collections::BTreeMap;
use std::time::Duration;

use egka_core::UserId;
use egka_trace::{Histogram, StallCause};

use crate::event::GroupId;
use crate::metrics::{Counters, EpochReport, ServiceMetrics};

/// Consecutive stalled epochs after which [`HealthReport::Stalled`]
/// flags a group (below this, stalls surface as
/// [`HealthReport::Degraded`] reasons).
pub const STALLED_AFTER_EPOCHS: u64 = 3;

/// One shard's row: the cumulative [`Counters`] of the work billed to
/// it, its WAL bytes and rekey-latency histogram, and the live gauges
/// [`crate::KeyService::shard_stats`] fills at snapshot time.
///
/// Every counter delta the service produces is tagged with the shard
/// that owns the group and added, once, both to that shard's row and to
/// the service total, so the rows sum to [`crate::ServiceMetrics`]'s
/// counters by construction ([`ShardStats::reconcile`] checks it).
/// Merge-phase work is billed to the *host* group's shard;
/// group-creation work to the created group's shard; WAL bytes to the
/// shard of the record's group (epoch commits and config records are
/// coordinator-wide and unattributed).
#[derive(Clone, Debug, Default)]
pub struct ShardStats {
    /// Shard index.
    pub shard: usize,
    /// Groups currently owned (gauge).
    pub groups: u64,
    /// Events sitting in this shard's pending queues (gauge).
    pub pending_events: u64,
    /// WAL bytes appended for records addressed to this shard's groups.
    pub wal_bytes: u64,
    /// Virtual radio milliseconds per committed rekey (fixed-bucket
    /// histogram; empty off-radio).
    pub latency_virtual: Histogram,
    /// Everything billed to this shard's groups (creations count no
    /// `rekeys_executed`, matching the service total).
    pub counters: Counters,
}

impl ShardStats {
    /// Adds one epoch delta billed to this shard: its counters and its
    /// virtual rekey latencies.
    pub(crate) fn record(&mut self, delta: &EpochReport) {
        self.counters.add(&delta.counters);
        for &ms in &delta.rekey_latencies_virtual_ms {
            self.latency_virtual.observe(ms);
        }
    }

    /// Folds a retired shard's cumulative history into this row, so it
    /// is absorbed (by convention into shard 0) instead of vanishing and
    /// breaking the partition. Gauges (`groups`, `pending_events`) are
    /// *not* summed: they describe live residency, which the relocations
    /// already moved.
    pub(crate) fn absorb(&mut self, retired: &ShardStats) {
        self.counters.add(&retired.counters);
        self.wal_bytes += retired.wal_bytes;
        self.latency_virtual.merge(&retired.latency_virtual);
    }

    /// The sum of the rows' counters.
    pub fn total(rows: &[ShardStats]) -> Counters {
        let mut sum = Counters::default();
        for row in rows {
            sum.add(&row.counters);
        }
        sum
    }

    /// Checks the partition: the rows' counters sum to `metrics`' in
    /// every field (see [`Counters::reconcile`]), their `groups` gauges
    /// to `groups_active`, and their latency histograms hold as many
    /// samples as the service's. `Err` describes the divergence.
    pub fn reconcile(rows: &[ShardStats], metrics: &ServiceMetrics) -> Result<(), String> {
        ShardStats::total(rows).reconcile(&metrics.counters)?;
        let groups: u64 = rows.iter().map(|s| s.groups).sum();
        let samples: u64 = rows.iter().map(|s| s.latency_virtual.count()).sum();
        let (want_groups, want_samples) = (metrics.groups_active, metrics.latency_virtual.count());
        if (groups, samples) != (want_groups, want_samples) {
            return Err(format!(
                "shard rows hold {groups} groups and {samples} latency samples, \
                 the service {want_groups} and {want_samples}"
            ));
        }
        Ok(())
    }
}

/// One `(group, member)` — or group-level — stall tally.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MemberStall {
    /// Stalled epochs since the last successful rekey (reset on commit).
    pub consecutive: u64,
    /// Stalled epochs over the ledger's lifetime (never reset).
    pub cumulative: u64,
    /// Classification of the most recent stall.
    pub last_cause: StallCause,
}

/// One stall this epoch, attributed: the group, the scheduler's
/// [`StallCause`] classification, and the unreachable members the epoch
/// needed (empty under pure loss — nobody is to blame).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StallEvent {
    /// The group whose epoch aborted.
    pub group: GroupId,
    /// Why it stalled.
    pub cause: StallCause,
    /// The detached / battery-dead members among the session and plan,
    /// ascending.
    pub culprits: Vec<UserId>,
}

/// A flattened ledger row: one member's stall tally within one group.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StallRecord {
    /// The stalled group.
    pub group: GroupId,
    /// The member the stalls are attributed to.
    pub member: UserId,
    /// Its tally.
    pub stall: MemberStall,
}

/// The per-member stall attribution ledger.
///
/// Every aborted group-epoch increments the group's tally and — when the
/// scheduler identified unreachable members — each culprit's
/// `(group, member)` tally. A successful rekey resets the *consecutive*
/// counters (group and members alike) but keeps the cumulative history,
/// so flapping members stay visible after they recover.
#[derive(Clone, Debug, Default)]
pub struct StallLedger {
    members: BTreeMap<(GroupId, UserId), MemberStall>,
    groups: BTreeMap<GroupId, MemberStall>,
}

impl StallLedger {
    fn bump(entry: &mut Option<&mut MemberStall>, cause: StallCause) {
        if let Some(e) = entry {
            e.consecutive += 1;
            e.cumulative += 1;
            e.last_cause = cause;
        }
    }

    /// Records one aborted group-epoch.
    pub(crate) fn record_stall(&mut self, gid: GroupId, cause: StallCause, culprits: &[UserId]) {
        let fresh = MemberStall {
            consecutive: 0,
            cumulative: 0,
            last_cause: cause,
        };
        Self::bump(&mut Some(self.groups.entry(gid).or_insert(fresh)), cause);
        for &u in culprits {
            Self::bump(
                &mut Some(self.members.entry((gid, u)).or_insert(fresh)),
                cause,
            );
        }
    }

    /// Records a committed rekey: the group (and its members') consecutive
    /// counters reset; cumulative history stays.
    pub(crate) fn record_success(&mut self, gid: GroupId) {
        if let Some(g) = self.groups.get_mut(&gid) {
            g.consecutive = 0;
        }
        for (_, e) in self
            .members
            .range_mut((gid, UserId(u32::MIN))..=(gid, UserId(u32::MAX)))
        {
            e.consecutive = 0;
        }
    }

    /// Group-level tallies, ascending by group id.
    pub fn group_records(&self) -> Vec<(GroupId, MemberStall)> {
        self.groups.iter().map(|(&g, &s)| (g, s)).collect()
    }

    /// Per-member rows, ascending by `(group, member)`.
    pub fn member_records(&self) -> Vec<StallRecord> {
        self.members
            .iter()
            .map(|(&(group, member), &stall)| StallRecord {
                group,
                member,
                stall,
            })
            .collect()
    }

    /// One group's tally, if it ever stalled.
    pub fn group(&self, gid: GroupId) -> Option<MemberStall> {
        self.groups.get(&gid).copied()
    }

    /// One member's tally within a group, if stalls were ever attributed
    /// to it.
    pub fn member(&self, gid: GroupId, member: UserId) -> Option<MemberStall> {
        self.members.get(&(gid, member)).copied()
    }

    /// The worst member rows, at most `n`, in a fully pinned order:
    /// highest consecutive streak first, then highest cumulative tally,
    /// then ascending member id, then ascending group id. Eviction
    /// planning consumes this ranking, so it must never depend on map
    /// iteration order — the tie-break chain leaves no two distinct rows
    /// unordered.
    pub fn worst_members(&self, n: usize) -> Vec<StallRecord> {
        let mut rows = self.member_records();
        rows.sort_by(|a, b| {
            b.stall
                .consecutive
                .cmp(&a.stall.consecutive)
                .then(b.stall.cumulative.cmp(&a.stall.cumulative))
                .then(a.member.cmp(&b.member))
                .then(a.group.cmp(&b.group))
        });
        rows.truncate(n);
        rows
    }

    /// Whether no stall has ever been recorded.
    pub fn is_empty(&self) -> bool {
        self.groups.is_empty()
    }

    /// Rebuilds a ledger from snapshot rows (the inverses of
    /// [`StallLedger::group_records`] / [`StallLedger::member_records`]).
    pub(crate) fn restore(groups: Vec<(GroupId, MemberStall)>, members: Vec<StallRecord>) -> Self {
        StallLedger {
            groups: groups.into_iter().collect(),
            members: members
                .into_iter()
                .map(|r| ((r.group, r.member), r.stall))
                .collect(),
        }
    }
}

/// Wall and virtual time one epoch phase consumed.
///
/// Shard-side buckets sum the *per-shard* walls, so under the parallel
/// fan-out a bucket reads like CPU time, not elapsed time — the sum over
/// shards can exceed the tick's wall clock on a multi-core host.
#[derive(Clone, Copy, Debug, Default)]
pub struct PhaseBucket {
    /// Wall-clock time spent (nondeterministic; never fed to the trace
    /// or the metrics registry).
    pub wall: Duration,
    /// Virtual radio milliseconds attributed (deterministic; 0 off-radio).
    pub virtual_ms: f64,
}

impl PhaseBucket {
    pub(crate) fn add(&mut self, other: &PhaseBucket) {
        self.wall += other.wall;
        self.virtual_ms += other.virtual_ms;
    }
}

/// Where an epoch tick's time went: planning (queue drain + coalescing),
/// executing protocol steps (including the coordinator's merge folds),
/// committing results (session installs, report folding, the WAL epoch
/// commit), and snapshotting.
#[derive(Clone, Copy, Debug, Default)]
pub struct PhaseProfile {
    /// Queue drain and plan construction.
    pub plan: PhaseBucket,
    /// Protocol-step interleaving (shards) and merge folds (coordinator).
    pub execute: PhaseBucket,
    /// Commit loops, report folding and the WAL epoch-commit append.
    pub commit: PhaseBucket,
    /// Compacting snapshot cuts (zero on epochs without one).
    pub snapshot: PhaseBucket,
}

impl PhaseProfile {
    /// Folds another profile in, bucket by bucket.
    pub fn add(&mut self, other: &PhaseProfile) {
        self.plan.add(&other.plan);
        self.execute.add(&other.execute);
        self.commit.add(&other.commit);
        self.snapshot.add(&other.snapshot);
    }

    /// Total wall time across the four buckets.
    pub fn wall_total(&self) -> Duration {
        self.plan.wall + self.execute.wall + self.commit.wall + self.snapshot.wall
    }

    /// Total virtual milliseconds across the four buckets.
    pub fn virtual_total_ms(&self) -> f64 {
        self.plan.virtual_ms
            + self.execute.virtual_ms
            + self.commit.virtual_ms
            + self.snapshot.virtual_ms
    }
}

/// A typed, deterministic answer to "is the service OK right now?".
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum HealthReport {
    /// No live group has a pending stall streak and no member is
    /// battery-dead.
    Healthy,
    /// Operational but impaired; each reason is a human-readable,
    /// deterministic sentence (stall streaks below the
    /// [`STALLED_AFTER_EPOCHS`] threshold, battery deaths).
    Degraded {
        /// Why, in stable order.
        reasons: Vec<String>,
    },
    /// At least one live group has stalled [`STALLED_AFTER_EPOCHS`] or
    /// more consecutive epochs — it is making no progress and will not
    /// without intervention (re-attach, or the `egka-robust` eviction
    /// engine completing the epoch over the survivors).
    Stalled {
        /// The stuck groups, ascending.
        groups: Vec<GroupId>,
    },
}

impl HealthReport {
    /// Stable one-word label (`healthy` / `degraded` / `stalled`) for
    /// artifacts and logs.
    pub fn label(&self) -> &'static str {
        match self {
            HealthReport::Healthy => "healthy",
            HealthReport::Degraded { .. } => "degraded",
            HealthReport::Stalled { .. } => "stalled",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ledger_attributes_and_resets() {
        let mut ledger = StallLedger::default();
        ledger.record_stall(7, StallCause::Detached, &[UserId(3), UserId(9)]);
        ledger.record_stall(7, StallCause::Detached, &[UserId(3)]);
        ledger.record_stall(8, StallCause::Loss, &[]);
        assert_eq!(ledger.group(7).unwrap().consecutive, 2);
        assert_eq!(ledger.member(7, UserId(3)).unwrap().cumulative, 2);
        assert_eq!(ledger.member(7, UserId(9)).unwrap().consecutive, 1);
        assert_eq!(ledger.member(8, UserId(3)), None);
        // Success resets consecutive, keeps cumulative, leaves other
        // groups alone.
        ledger.record_success(7);
        assert_eq!(ledger.group(7).unwrap().consecutive, 0);
        assert_eq!(ledger.group(7).unwrap().cumulative, 2);
        assert_eq!(ledger.member(7, UserId(3)).unwrap().consecutive, 0);
        assert_eq!(ledger.member(7, UserId(3)).unwrap().cumulative, 2);
        assert_eq!(ledger.group(8).unwrap().consecutive, 1);
        let worst = ledger.worst_members(1);
        assert_eq!(worst[0].member, UserId(3));
    }

    #[test]
    fn worst_members_pins_ties() {
        let mut ledger = StallLedger::default();
        // Three members with identical (consecutive=1, cumulative=1)
        // tallies, spread across two groups, plus one clear leader.
        ledger.record_stall(5, StallCause::Detached, &[UserId(8), UserId(2)]);
        ledger.record_stall(4, StallCause::Detached, &[UserId(2), UserId(6)]);
        ledger.record_stall(4, StallCause::Detached, &[UserId(6)]);
        let worst = ledger.worst_members(10);
        let order: Vec<(GroupId, UserId)> = worst.iter().map(|r| (r.group, r.member)).collect();
        // u6 leads on streak; the (1, 1) tie then orders by member id
        // with u2's two groups adjacent, group ascending.
        assert_eq!(
            order,
            vec![
                (4, UserId(6)),
                (4, UserId(2)),
                (5, UserId(2)),
                (5, UserId(8)),
            ]
        );
        // Streak dominates cumulative: after group 4's success resets
        // its members to streak 0, u6's cumulative 2 still sorts behind
        // every live streak, and only then ahead of the cumulative 1s.
        ledger.record_success(4);
        ledger.record_stall(5, StallCause::Detached, &[UserId(8)]);
        let order: Vec<(GroupId, UserId)> = ledger
            .worst_members(10)
            .iter()
            .map(|r| (r.group, r.member))
            .collect();
        assert_eq!(
            order,
            vec![
                (5, UserId(8)),
                (5, UserId(2)),
                (4, UserId(6)),
                (4, UserId(2)),
            ]
        );
    }

    #[test]
    fn phase_profile_sums() {
        let mut p = PhaseProfile::default();
        let mut q = PhaseProfile::default();
        q.plan.wall = Duration::from_millis(2);
        q.execute.virtual_ms = 5.0;
        p.add(&q);
        p.add(&q);
        assert_eq!(p.wall_total(), Duration::from_millis(4));
        assert_eq!(p.virtual_total_ms(), 10.0);
    }

    #[test]
    fn health_labels_are_stable() {
        assert_eq!(HealthReport::Healthy.label(), "healthy");
        assert_eq!(
            HealthReport::Degraded { reasons: vec![] }.label(),
            "degraded"
        );
        assert_eq!(HealthReport::Stalled { groups: vec![1] }.label(), "stalled");
    }
}
