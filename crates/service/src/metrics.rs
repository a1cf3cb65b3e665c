//! Service-level and per-epoch metrics.

use std::collections::BTreeMap;
use std::time::Duration;

use egka_core::suite::SuiteId;
use egka_energy::OpCounts;
use egka_medium::TrafficStats;
use egka_trace::Histogram;

use crate::event::{GroupId, MembershipEvent, RejectReason};
use crate::health::{PhaseProfile, StallEvent};

/// What one suite did (and cost) over some accounting window.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SuiteUsage {
    /// Committed rekeys executed under the suite (creations count as one
    /// in the cumulative [`ServiceMetrics`] view).
    pub rekeys: u64,
    /// Priced energy attributed to the suite, mJ — committed rekeys *and*
    /// charged failed attempts.
    pub energy_mj: f64,
}

/// Merges per-suite usage maps component-wise.
pub(crate) fn add_per_suite(
    into: &mut BTreeMap<SuiteId, SuiteUsage>,
    from: &BTreeMap<SuiteId, SuiteUsage>,
) {
    for (&suite, usage) in from {
        let e = into.entry(suite).or_default();
        e.rekeys += usage.rekeys;
        e.energy_mj += usage.energy_mj;
    }
}

/// Cumulative service counters (monotone across epochs).
#[derive(Clone, Debug, Default)]
pub struct ServiceMetrics {
    /// Groups currently holding an agreed key.
    pub groups_active: u64,
    /// Groups ever created.
    pub groups_created: u64,
    /// Groups dissolved (membership fell below two).
    pub groups_dissolved: u64,
    /// Groups absorbed into another group by a merge.
    pub groups_merged_away: u64,
    /// Events accepted into queues by `submit`.
    pub events_submitted: u64,
    /// Events applied by epoch ticks as membership changes. Join/leave
    /// pairs that cancelled each other are *excluded* here and counted in
    /// `events_cancelled` instead.
    pub events_applied: u64,
    /// Events rejected at their epoch (invalid against the live state).
    pub events_rejected: u64,
    /// Join/leave pairs that cancelled without any rekey.
    pub events_cancelled: u64,
    /// §7 dynamic protocol executions (one Partition covering k leaves
    /// counts once — that is the point).
    pub rekeys_executed: u64,
    /// Full initial-GKA re-runs (fallbacks and batched-join GKAs).
    pub full_gka_runs: u64,
    /// Rekey steps that timed out after exhausting their retransmission
    /// budget (the group kept its pre-epoch key; its events requeued).
    pub rekeys_failed: u64,
    /// Groups whose epoch was aborted by a stalled rekey (a powered-off
    /// member, or persistent loss).
    pub groups_stalled: u64,
    /// Loss-stalled protocol steps that were retried with fresh
    /// randomness ("all members retransmit" at the scheduler level).
    pub steps_retried: u64,
    /// Epochs ticked.
    pub epochs: u64,
    /// Members whose battery drained to zero under a radio medium — each
    /// was auto-detached, feeding the scheduler's timeout path.
    pub nodes_died: u64,
    /// Members evicted by the robustness engine (stall streak crossed
    /// the policy threshold); 0 without an eviction policy.
    pub members_evicted: u64,
    /// Signed blame certificates appended to the WAL (one per evicting
    /// group-epoch).
    pub blame_certs: u64,
    /// Previously evicted members readmitted by a post-quarantine Join.
    pub members_readmitted: u64,
    /// Fixed-bucket histogram of virtual radio milliseconds per committed
    /// rekey (one observation per group-epoch that rekeyed over a radio
    /// medium; includes retransmitted attempts). O(1) per sample and
    /// O(buckets) memory, so a long-lived service never grows; quantiles
    /// come from bucket interpolation with exact min/max clamping. Empty
    /// off-radio.
    pub latency_virtual: Histogram,
    /// Total priced energy across all nodes of all groups, in mJ.
    pub energy_mj: f64,
    /// Cumulative operation counts across all rekeys.
    pub ops: OpCounts,
    /// Cumulative nominal/actual traffic across all rekeys, pulled from
    /// each protocol execution's medium accounting.
    pub traffic: TrafficStats,
    /// Cumulative rekeys and priced energy per GKA suite (group creations
    /// included) — the multi-backend cost ledger.
    pub per_suite: BTreeMap<SuiteId, SuiteUsage>,
    /// Shards added to the live pool by [`crate::KeyService::add_shard`].
    pub shards_added: u64,
    /// Shards retired by [`crate::KeyService::remove_shard`].
    pub shards_removed: u64,
    /// Live group handoffs between shards (manual moves, rebalancer
    /// moves, and relocations forced by pool resizes).
    pub groups_moved: u64,
    /// Write-ahead log records appended (commands + epoch commits); 0
    /// without a configured store.
    pub wal_appends: u64,
    /// Compacting snapshots installed.
    pub snapshots_written: u64,
    /// Durability barriers (fsyncs or their in-memory equivalent) the
    /// store has performed on this service's behalf.
    pub store_syncs: u64,
}

impl ServiceMetrics {
    /// Events applied per rekey executed — the coalescing win. Greater
    /// than 1.0 means batching saved protocol executions.
    pub fn coalesce_ratio(&self) -> f64 {
        if self.rekeys_executed == 0 {
            if self.events_applied == 0 {
                return 1.0;
            }
            return f64::INFINITY;
        }
        self.events_applied as f64 / self.rekeys_executed as f64
    }

    /// `(p50, p95, p99)` rekey latency in **virtual radio milliseconds**
    /// across every committed rekey, estimated from the fixed-bucket
    /// histogram; `None` off-radio.
    pub fn virtual_latency_quantiles(&self) -> Option<(f64, f64, f64)> {
        let s = self.latency_virtual.snapshot();
        Some((s.quantile(0.50)?, s.quantile(0.95)?, s.quantile(0.99)?))
    }

    /// Renders the full counter set as one flat JSON object, parseable by
    /// `egka_bench::json` (numbers, nested objects, `null`) — the single
    /// serialization the bench artifacts embed, instead of each binary
    /// hand-picking fields.
    ///
    /// The exhaustive destructuring is deliberate: adding a field to
    /// [`ServiceMetrics`] without exporting it here is a compile error,
    /// not a silently stale artifact. Latencies are summarized as
    /// `{p50,p95,p99}` quantiles plus the retained sample count; op
    /// counts as their computational-op total (traffic is exported in
    /// full, separately).
    pub fn to_json(&self) -> String {
        let ServiceMetrics {
            groups_active,
            groups_created,
            groups_dissolved,
            groups_merged_away,
            events_submitted,
            events_applied,
            events_rejected,
            events_cancelled,
            rekeys_executed,
            full_gka_runs,
            rekeys_failed,
            groups_stalled,
            steps_retried,
            epochs,
            nodes_died,
            members_evicted,
            blame_certs,
            members_readmitted,
            latency_virtual,
            energy_mj,
            ops,
            traffic,
            per_suite,
            shards_added,
            shards_removed,
            groups_moved,
            wal_appends,
            snapshots_written,
            store_syncs,
        } = self;
        let lat_snap = latency_virtual.snapshot();
        let latency = match (
            lat_snap.quantile(0.50),
            lat_snap.quantile(0.95),
            lat_snap.quantile(0.99),
        ) {
            (Some(p50), Some(p95), Some(p99)) => {
                format!("{{\"p50\": {p50:.3}, \"p95\": {p95:.3}, \"p99\": {p99:.3}}}")
            }
            _ => "null".to_string(),
        };
        let suites = per_suite
            .iter()
            .map(|(id, u)| {
                format!(
                    "\"{}\": {{\"rekeys\": {}, \"energy_mj\": {:.3}}}",
                    id.key(),
                    u.rekeys,
                    u.energy_mj
                )
            })
            .collect::<Vec<_>>()
            .join(", ");
        let comp_ops: u64 = ops.comp.iter().sum();
        format!(
            "{{\"groups_active\": {groups_active}, \
             \"groups_created\": {groups_created}, \
             \"groups_dissolved\": {groups_dissolved}, \
             \"groups_merged_away\": {groups_merged_away}, \
             \"events_submitted\": {events_submitted}, \
             \"events_applied\": {events_applied}, \
             \"events_rejected\": {events_rejected}, \
             \"events_cancelled\": {events_cancelled}, \
             \"rekeys_executed\": {rekeys_executed}, \
             \"full_gka_runs\": {full_gka_runs}, \
             \"rekeys_failed\": {rekeys_failed}, \
             \"groups_stalled\": {groups_stalled}, \
             \"steps_retried\": {steps_retried}, \
             \"epochs\": {epochs}, \
             \"nodes_died\": {nodes_died}, \
             \"members_evicted\": {members_evicted}, \
             \"blame_certs\": {blame_certs}, \
             \"members_readmitted\": {members_readmitted}, \
             \"energy_mj\": {energy_mj:.3}, \
             \"comp_ops\": {comp_ops}, \
             \"traffic\": {{\"tx_bits\": {}, \"rx_bits\": {}, \
             \"tx_bits_actual\": {}, \"rx_bits_actual\": {}, \
             \"msgs_tx\": {}, \"msgs_rx\": {}}}, \
             \"latency_virtual_ms\": {latency}, \
             \"latency_samples\": {}, \
             \"per_suite\": {{{suites}}}, \
             \"shards_added\": {shards_added}, \
             \"shards_removed\": {shards_removed}, \
             \"groups_moved\": {groups_moved}, \
             \"wal_appends\": {wal_appends}, \
             \"snapshots_written\": {snapshots_written}, \
             \"store_syncs\": {store_syncs}}}",
            traffic.tx_bits,
            traffic.rx_bits,
            traffic.tx_bits_actual,
            traffic.rx_bits_actual,
            traffic.msgs_tx,
            traffic.msgs_rx,
            latency_virtual.count(),
        )
    }
}

/// `(p50, p95, p99)` of a latency sample, `None` when empty.
///
/// Quantiles are **nearest-rank on the sorted sample**: `p_q` is the
/// element at index `round((n-1) * q)`. The degenerate cases are explicit
/// rather than falling out of the arithmetic: an empty sample has no
/// quantiles (`None`, never `NaN`), and a single sample *is* all three of
/// its quantiles.
pub fn quantiles3(xs: &[f64]) -> Option<(f64, f64, f64)> {
    match xs {
        [] => None,
        [only] => Some((*only, *only, *only)),
        _ => {
            let mut sorted = xs.to_vec();
            sorted.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
            let at = |q: f64| sorted[((sorted.len() - 1) as f64 * q).round() as usize];
            Some((at(0.50), at(0.95), at(0.99)))
        }
    }
}

/// What one [`crate::KeyService::tick`] did.
#[derive(Clone, Debug, Default)]
pub struct EpochReport {
    /// Epoch number (1-based; incremented per tick).
    pub epoch: u64,
    /// Groups whose queues were non-empty this epoch.
    pub groups_touched: u64,
    /// Events applied this epoch.
    pub events_applied: u64,
    /// Events rejected this epoch (`rejections.len()`).
    pub events_rejected: u64,
    /// The rejected events themselves, with the group and reason.
    pub rejections: Vec<(GroupId, MembershipEvent, RejectReason)>,
    /// Join/leave pairs cancelled this epoch.
    pub events_cancelled: u64,
    /// §7 rekeys executed this epoch.
    pub rekeys_executed: u64,
    /// Full initial-GKA executions among them.
    pub full_gka_runs: u64,
    /// Rekey steps that timed out this epoch (their groups kept their
    /// pre-epoch keys; events requeued).
    pub rekeys_failed: u64,
    /// Groups stalled (epoch aborted) this epoch.
    pub groups_stalled: u64,
    /// Loss-stalled steps retried with fresh randomness this epoch.
    pub steps_retried: u64,
    /// Groups dissolved this epoch.
    pub groups_dissolved: u64,
    /// Priced energy of this epoch's rekeys, in mJ.
    pub energy_mj: f64,
    /// Operation counts of this epoch's rekeys.
    pub ops: OpCounts,
    /// Traffic of this epoch's rekeys.
    pub traffic: TrafficStats,
    /// Members whose battery died this epoch.
    pub nodes_died: u64,
    /// Members the robustness engine evicted at the top of this tick,
    /// as `(group, member)` pairs ascending — the synthesized Leaves
    /// that complete the epoch over the survivors.
    pub evicted: Vec<(GroupId, egka_core::UserId)>,
    /// `evicted.len()` as a counter (folds into the cumulative total).
    pub members_evicted: u64,
    /// Blame certificates signed and logged this tick.
    pub blame_certs: u64,
    /// Wall-clock from a group's epoch being planned to its commit, one
    /// entry per group that rekeyed. Under the interleaving scheduler
    /// this *includes* time the shard spent pumping other groups (and any
    /// retransmitted attempts) — it measures what a caller of `tick()`
    /// experiences per group, not a group's exclusive protocol time.
    pub rekey_latencies: Vec<Duration>,
    /// Virtual **radio** milliseconds per committed rekey this epoch:
    /// the group's exclusive channel time (airtime + link delay, summed
    /// over its plan's steps and any retransmitted attempts), measured on
    /// the simulated clock. Empty off-radio.
    pub rekey_latencies_virtual_ms: Vec<f64>,
    /// This epoch's rekeys and priced energy per GKA suite — under a
    /// [`crate::SuitePolicy::Cheapest`] service, the per-protocol cost
    /// split the planner's selections produced.
    pub per_suite: BTreeMap<SuiteId, SuiteUsage>,
    /// Every aborted group-epoch, attributed: the stalled group, the
    /// scheduler's cause classification, and the unreachable members the
    /// plan needed. Feeds the service's stall ledger.
    pub stall_events: Vec<StallEvent>,
    /// Groups that committed a rekey this epoch (successful epochs reset
    /// their ledger streaks).
    pub rekeyed_groups: Vec<GroupId>,
    /// Where this tick's wall and virtual time went: plan / execute /
    /// commit / snapshot. Wall buckets are nondeterministic and never fed
    /// to traces or the metrics registry.
    pub phases: PhaseProfile,
}

impl EpochReport {
    /// Events applied per rekey this epoch.
    pub fn coalesce_ratio(&self) -> f64 {
        if self.rekeys_executed == 0 {
            if self.events_applied == 0 {
                return 1.0;
            }
            return f64::INFINITY;
        }
        self.events_applied as f64 / self.rekeys_executed as f64
    }

    /// `(p50, p95, max)` rekey latency of this epoch, if any rekeys ran.
    pub fn latency_quantiles(&self) -> Option<(Duration, Duration, Duration)> {
        if self.rekey_latencies.is_empty() {
            return None;
        }
        let mut sorted = self.rekey_latencies.clone();
        sorted.sort();
        let at = |q: f64| sorted[((sorted.len() - 1) as f64 * q).round() as usize];
        Some((at(0.50), at(0.95), sorted[sorted.len() - 1]))
    }

    /// `(p50, p95, p99)` rekey latency of this epoch in virtual radio
    /// milliseconds; `None` off-radio or when nothing rekeyed.
    pub fn latency_quantiles_virtual(&self) -> Option<(f64, f64, f64)> {
        quantiles3(&self.rekey_latencies_virtual_ms)
    }

    /// Folds this epoch into the cumulative service counters.
    pub(crate) fn fold_into(&self, m: &mut ServiceMetrics) {
        m.events_applied += self.events_applied;
        m.events_rejected += self.events_rejected;
        m.events_cancelled += self.events_cancelled;
        m.rekeys_executed += self.rekeys_executed;
        m.full_gka_runs += self.full_gka_runs;
        m.rekeys_failed += self.rekeys_failed;
        m.groups_stalled += self.groups_stalled;
        m.steps_retried += self.steps_retried;
        m.groups_dissolved += self.groups_dissolved;
        m.nodes_died += self.nodes_died;
        m.members_evicted += self.members_evicted;
        m.blame_certs += self.blame_certs;
        for &v in &self.rekey_latencies_virtual_ms {
            m.latency_virtual.observe(v);
        }
        m.energy_mj += self.energy_mj;
        m.ops.merge(&self.ops);
        add_traffic(&mut m.traffic, &self.traffic);
        add_per_suite(&mut m.per_suite, &self.per_suite);
        m.epochs += 1;
    }
}

/// Component-wise sum of [`TrafficStats`].
pub(crate) fn add_traffic(into: &mut TrafficStats, from: &TrafficStats) {
    into.tx_bits += from.tx_bits;
    into.rx_bits += from.rx_bits;
    into.tx_bits_actual += from.tx_bits_actual;
    into.rx_bits_actual += from.rx_bits_actual;
    into.msgs_tx += from.msgs_tx;
    into.msgs_rx += from.msgs_rx;
}

/// Extracts the traffic components of an [`OpCounts`] (protocol reports
/// embed the medium's per-node counters there).
pub(crate) fn traffic_of(counts: &OpCounts) -> TrafficStats {
    TrafficStats {
        tx_bits: counts.tx_bits,
        rx_bits: counts.rx_bits,
        tx_bits_actual: counts.tx_bits_actual,
        rx_bits_actual: counts.rx_bits_actual,
        msgs_tx: counts.msgs_tx,
        msgs_rx: counts.msgs_rx,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_empty_is_none() {
        assert_eq!(quantiles3(&[]), None);
    }

    #[test]
    fn quantiles_single_sample_is_all_three() {
        assert_eq!(quantiles3(&[7.25]), Some((7.25, 7.25, 7.25)));
    }

    #[test]
    fn quantiles_two_samples() {
        // round((2-1)*0.50) = 1, so p50 already lands on the larger
        // sample; p95/p99 likewise.
        assert_eq!(quantiles3(&[3.0, 1.0]), Some((3.0, 3.0, 3.0)));
    }

    #[test]
    fn quantiles_pinned_on_1_to_100() {
        // Nearest-rank on n=100: index round(99q) → p50 = sorted[50] = 51,
        // p95 = sorted[94] = 95, p99 = sorted[98] = 99.
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantiles3(&xs), Some((51.0, 95.0, 99.0)));
    }

    #[test]
    fn quantiles_sort_input() {
        let mut xs: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        xs.swap(10, 60);
        assert_eq!(quantiles3(&xs), Some((51.0, 95.0, 99.0)));
    }

    /// The histogram that replaced the sort-on-every-call sample vector
    /// must reproduce `quantiles3`'s pinned answers on the same inputs:
    /// exactly for the degenerate cases (empty, single sample, n=2) and
    /// for uniform data, where within-bucket interpolation is exact.
    #[test]
    fn histogram_quantiles_pin_to_nearest_rank() {
        let observe_all = |xs: &[f64]| {
            let mut h = Histogram::default();
            for &x in xs {
                h.observe(x);
            }
            h
        };
        let triple = |h: &Histogram| {
            let s = h.snapshot();
            Some((s.quantile(0.50)?, s.quantile(0.95)?, s.quantile(0.99)?))
        };
        for xs in [
            &[][..],
            &[7.25][..],
            &[3.0, 1.0][..],
            &(1..=100).map(f64::from).collect::<Vec<_>>()[..],
        ] {
            assert_eq!(triple(&observe_all(xs)), quantiles3(xs), "input {xs:?}");
        }
    }

    #[test]
    fn metrics_json_is_parseable_and_complete() {
        let mut m = ServiceMetrics {
            groups_active: 3,
            rekeys_executed: 9,
            energy_mj: 1.5,
            ..ServiceMetrics::default()
        };
        m.latency_virtual.observe(2.0);
        m.per_suite.insert(
            SuiteId::Proposed,
            SuiteUsage {
                rekeys: 9,
                energy_mj: 1.5,
            },
        );
        let json = m.to_json();
        assert!(json.contains("\"groups_active\": 3"));
        assert!(json.contains("\"latency_virtual_ms\": {\"p50\": 2.000"));
        assert!(json.contains("\"proposed\""));
        // Balanced braces — the cheap structural sanity check available
        // without a parser dependency (egka-bench's parser round-trips it
        // in its own tests).
        let opens = json.matches('{').count();
        assert_eq!(opens, json.matches('}').count());
        assert!(opens >= 4);
    }
}
