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
    /// Committed rekeys executed under the suite (a group creation counts
    /// as one).
    pub rekeys: u64,
    /// Priced energy attributed to the suite, mJ — committed rekeys *and*
    /// charged failed attempts.
    pub energy_mj: f64,
}

/// The additive ledger of what rekeys did and what they cost — events,
/// protocol runs, failures, operation counts, bits on air and priced
/// energy. Declared once and embedded three times: in [`EpochReport`]
/// (one epoch), in [`crate::ShardStats`] (one shard, cumulative) and in
/// [`ServiceMetrics`] (the service, cumulative); each of the three
/// dereferences to it, so `report.events_applied` reads through.
///
/// The service bills every piece of work into one delta tagged with the
/// shard that owns the group, and folds that delta with [`Counters::add`]
/// into both the epoch report and the owning shard's row. The shard rows
/// therefore sum to the service total by construction.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Counters {
    /// Events applied as membership changes (merges count one per
    /// committed fold). Join/leave pairs that cancelled each other are
    /// *excluded* here and counted in `events_cancelled` instead.
    pub events_applied: u64,
    /// Events rejected at their epoch (invalid against the live state).
    pub events_rejected: u64,
    /// Join/leave pairs that cancelled without any rekey.
    pub events_cancelled: u64,
    /// §7 dynamic protocol executions (one Partition covering k leaves
    /// counts once — that is the point). Group creations are excluded.
    pub rekeys_executed: u64,
    /// Full initial-GKA re-runs (fallbacks and batched-join GKAs).
    pub full_gka_runs: u64,
    /// Rekey steps that timed out after exhausting their retransmission
    /// budget (the group kept its pre-epoch key; its events requeued).
    pub rekeys_failed: u64,
    /// Group-epochs aborted by a stalled rekey (a powered-off member, or
    /// persistent loss).
    pub groups_stalled: u64,
    /// Groups dissolved (membership fell below two).
    pub groups_dissolved: u64,
    /// Loss-stalled protocol steps that were retried with fresh
    /// randomness ("all members retransmit" at the scheduler level).
    pub steps_retried: u64,
    /// Priced energy across all nodes of the groups concerned, in mJ —
    /// committed rekeys, charged failed attempts and group creations.
    pub energy_mj: f64,
    /// Operation counts of the same work. Merge them with
    /// [`Counters::add_ops`], which keeps `traffic` in step.
    pub ops: OpCounts,
    /// Nominal/actual traffic of the same work: always
    /// `traffic_of(&ops)`, derived by [`Counters::add_ops`].
    pub traffic: TrafficStats,
    /// Rekeys and priced energy per GKA suite — the multi-backend cost
    /// ledger. Group creations count one rekey each here.
    pub per_suite: BTreeMap<SuiteId, SuiteUsage>,
}

impl Counters {
    /// Adds `delta` field by field. The exhaustive destructure makes a
    /// field this sum forgets a compile error.
    pub fn add(&mut self, delta: &Counters) {
        let Counters {
            events_applied,
            events_rejected,
            events_cancelled,
            rekeys_executed,
            full_gka_runs,
            rekeys_failed,
            groups_stalled,
            groups_dissolved,
            steps_retried,
            energy_mj,
            ops,
            traffic: _, // derived from `ops`
            per_suite,
        } = delta;
        self.events_applied += events_applied;
        self.events_rejected += events_rejected;
        self.events_cancelled += events_cancelled;
        self.rekeys_executed += rekeys_executed;
        self.full_gka_runs += full_gka_runs;
        self.rekeys_failed += rekeys_failed;
        self.groups_stalled += groups_stalled;
        self.groups_dissolved += groups_dissolved;
        self.steps_retried += steps_retried;
        self.energy_mj += energy_mj;
        self.add_ops(ops);
        for (&suite, usage) in per_suite {
            let e = self.per_suite.entry(suite).or_default();
            e.rekeys += usage.rekeys;
            e.energy_mj += usage.energy_mj;
        }
    }

    /// Charges operation counts, re-deriving `traffic` from the sum.
    pub fn add_ops(&mut self, ops: &OpCounts) {
        self.ops.merge(ops);
        self.traffic = traffic_of(&self.ops);
    }

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

    /// Checks that `self` (a sum of shard rows) equals `total` in every
    /// field: energies (the total and each suite's) to a relative 1e-9,
    /// since the two sides may associate the same f64 terms differently,
    /// and everything else exactly.
    pub fn reconcile(&self, total: &Counters) -> Result<(), String> {
        let close = |a: f64, b: f64| (a - b).abs() <= 1e-9 * b.abs().max(1.0);
        let suites_close = self.per_suite.len() == total.per_suite.len()
            && (self.per_suite.iter().zip(&total.per_suite)).all(|((s, u), (t, v))| {
                s == t && u.rekeys == v.rekeys && close(u.energy_mj, v.energy_mj)
            });
        let exact = |c: &Counters| {
            // An empty `comp` vector and an all-zero one count the same ops.
            let mut ops = OpCounts::new();
            ops.merge(&c.ops);
            Counters {
                energy_mj: 0.0,
                ops,
                per_suite: BTreeMap::new(),
                ..c.clone()
            }
        };
        if close(self.energy_mj, total.energy_mj) && suites_close && exact(self) == exact(total) {
            Ok(())
        } else {
            Err(format!(
                "shard rows sum to {self:?}, the total is {total:?}"
            ))
        }
    }

    /// Renders the counters as the `"key": value` members of a JSON
    /// object (no surrounding braces), for [`ServiceMetrics::to_json`]
    /// to splice in. Exhaustive like [`Counters::add`]: a field left out
    /// of the artifact is a compile error. Op counts render as their
    /// computational-op total; traffic and the per-suite ledger in full.
    pub fn json_fields(&self) -> String {
        let Counters {
            events_applied,
            events_rejected,
            events_cancelled,
            rekeys_executed,
            full_gka_runs,
            rekeys_failed,
            groups_stalled,
            groups_dissolved,
            steps_retried,
            energy_mj,
            ops,
            traffic,
            per_suite,
        } = self;
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
            "\"groups_dissolved\": {groups_dissolved}, \
             \"events_applied\": {events_applied}, \
             \"events_rejected\": {events_rejected}, \
             \"events_cancelled\": {events_cancelled}, \
             \"rekeys_executed\": {rekeys_executed}, \
             \"full_gka_runs\": {full_gka_runs}, \
             \"rekeys_failed\": {rekeys_failed}, \
             \"groups_stalled\": {groups_stalled}, \
             \"steps_retried\": {steps_retried}, \
             \"energy_mj\": {energy_mj:.3}, \
             \"comp_ops\": {comp_ops}, \
             \"traffic\": {{\"tx_bits\": {}, \"rx_bits\": {}, \
             \"tx_bits_actual\": {}, \"rx_bits_actual\": {}, \
             \"msgs_tx\": {}, \"msgs_rx\": {}}}, \
             \"per_suite\": {{{suites}}}",
            traffic.tx_bits,
            traffic.rx_bits,
            traffic.tx_bits_actual,
            traffic.rx_bits_actual,
            traffic.msgs_tx,
            traffic.msgs_rx,
        )
    }
}

/// `Deref`/`DerefMut` to the embedded [`Counters`], so the embedding
/// structs read and write the shared counters as their own fields.
macro_rules! embeds_counters {
    ($($t:ty),*) => {$(
        impl std::ops::Deref for $t {
            type Target = Counters;
            fn deref(&self) -> &Counters {
                &self.counters
            }
        }
        impl std::ops::DerefMut for $t {
            fn deref_mut(&mut self) -> &mut Counters {
                &mut self.counters
            }
        }
    )*};
}

embeds_counters!(ServiceMetrics, EpochReport, crate::health::ShardStats);

/// Cumulative service counters (monotone across epochs): the summed
/// [`Counters`] of every epoch and group creation, plus the counts only
/// the coordinator produces.
#[derive(Clone, Debug, Default)]
pub struct ServiceMetrics {
    /// Groups currently holding an agreed key.
    pub groups_active: u64,
    /// Groups ever created.
    pub groups_created: u64,
    /// Groups absorbed into another group by a merge.
    pub groups_merged_away: u64,
    /// Events accepted into queues by `submit`.
    pub events_submitted: u64,
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
    /// Everything the epochs and group creations did and cost.
    pub counters: Counters,
}

impl ServiceMetrics {
    /// Folds a finished epoch into the cumulative counters.
    pub(crate) fn add_epoch(&mut self, report: &EpochReport) {
        self.counters.add(&report.counters);
        self.nodes_died += report.nodes_died;
        self.members_evicted += report.members_evicted;
        self.blame_certs += report.blame_certs;
        for &v in &report.rekey_latencies_virtual_ms {
            self.latency_virtual.observe(v);
        }
        self.epochs += 1;
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
    /// `{p50,p95,p99}` quantiles plus the retained sample count; the
    /// [`Counters`] render through [`Counters::json_fields`].
    pub fn to_json(&self) -> String {
        let ServiceMetrics {
            groups_active,
            groups_created,
            groups_merged_away,
            events_submitted,
            epochs,
            nodes_died,
            members_evicted,
            blame_certs,
            members_readmitted,
            latency_virtual,
            shards_added,
            shards_removed,
            groups_moved,
            wal_appends,
            snapshots_written,
            store_syncs,
            counters,
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
        format!(
            "{{\"groups_active\": {groups_active}, \
             \"groups_created\": {groups_created}, \
             \"groups_merged_away\": {groups_merged_away}, \
             \"events_submitted\": {events_submitted}, \
             {}, \
             \"epochs\": {epochs}, \
             \"nodes_died\": {nodes_died}, \
             \"members_evicted\": {members_evicted}, \
             \"blame_certs\": {blame_certs}, \
             \"members_readmitted\": {members_readmitted}, \
             \"latency_virtual_ms\": {latency}, \
             \"latency_samples\": {}, \
             \"shards_added\": {shards_added}, \
             \"shards_removed\": {shards_removed}, \
             \"groups_moved\": {groups_moved}, \
             \"wal_appends\": {wal_appends}, \
             \"snapshots_written\": {snapshots_written}, \
             \"store_syncs\": {store_syncs}}}",
            counters.json_fields(),
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

/// What one [`crate::KeyService::tick`] did: its [`Counters`], plus the
/// per-epoch detail (rejections, stalls, latencies, phases) that only
/// makes sense for one epoch.
///
/// The same type carries the deltas the tick folds together: each
/// shard's scheduler output and each merge host's coordinator work.
#[derive(Clone, Debug, Default)]
pub struct EpochReport {
    /// Epoch number (1-based; incremented per tick).
    pub epoch: u64,
    /// Groups whose queues were non-empty this epoch.
    pub groups_touched: u64,
    /// The rejected events themselves, with the group and reason
    /// (`events_rejected` counts them).
    pub rejections: Vec<(GroupId, MembershipEvent, RejectReason)>,
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
    /// This epoch's events, rekeys, operation counts, traffic and priced
    /// energy (in total and per GKA suite).
    pub counters: Counters,
}

impl EpochReport {
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

    /// Appends a delta (one shard's or one merge host's work) to this
    /// report: counters add, lists extend in order.
    pub(crate) fn absorb(&mut self, delta: EpochReport) {
        let EpochReport {
            epoch: _,
            groups_touched,
            rejections,
            nodes_died,
            evicted,
            members_evicted,
            blame_certs,
            rekey_latencies,
            rekey_latencies_virtual_ms,
            stall_events,
            rekeyed_groups,
            phases,
            counters,
        } = delta;
        self.counters.add(&counters);
        self.groups_touched += groups_touched;
        self.rejections.extend(rejections);
        self.nodes_died += nodes_died;
        self.evicted.extend(evicted);
        self.members_evicted += members_evicted;
        self.blame_certs += blame_certs;
        self.rekey_latencies.extend(rekey_latencies);
        self.rekey_latencies_virtual_ms
            .extend(rekey_latencies_virtual_ms);
        self.stall_events.extend(stall_events);
        self.rekeyed_groups.extend(rekeyed_groups);
        self.phases.add(&phases);
    }
}

/// Extracts the traffic components of an [`OpCounts`] (protocol reports
/// embed the medium's per-node counters there).
fn traffic_of(counts: &OpCounts) -> TrafficStats {
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
            ..ServiceMetrics::default()
        };
        m.rekeys_executed = 9;
        m.energy_mj = 1.5;
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
        assert!(json.contains("\"rekeys_executed\": 9"));
        assert!(json.contains("\"energy_mj\": 1.500"));
        assert!(json.contains("\"latency_virtual_ms\": {\"p50\": 2.000"));
        assert!(json.contains("\"proposed\""));
        // Balanced braces — the cheap structural sanity check available
        // without a parser dependency (egka-bench's parser round-trips it
        // in its own tests).
        let opens = json.matches('{').count();
        assert_eq!(opens, json.matches('}').count());
        assert!(opens >= 4);
    }

    /// A random delta with dyadic energies, so every f64 sum is exact.
    fn random_delta(rng: &mut egka_hash::ChaChaRng) -> Counters {
        use rand::Rng;
        let mut small = || rng.next_u64() % 1000;
        let mut ops = OpCounts::new();
        for c in ops.comp.iter_mut() {
            *c = small();
        }
        ops.tx_bits = small();
        ops.rx_bits = small();
        ops.tx_bits_actual = small();
        ops.rx_bits_actual = small();
        ops.msgs_tx = small();
        ops.msgs_rx = small();
        let mut delta = Counters {
            events_applied: small(),
            events_rejected: small(),
            events_cancelled: small(),
            rekeys_executed: small(),
            full_gka_runs: small(),
            rekeys_failed: small(),
            groups_stalled: small(),
            groups_dissolved: small(),
            steps_retried: small(),
            energy_mj: small() as f64 / 8.0,
            ..Counters::default()
        };
        delta.add_ops(&ops);
        for suite in SuiteId::ALL {
            if rng.next_u64().is_multiple_of(2) {
                let usage = SuiteUsage {
                    rekeys: rng.next_u64() % 100,
                    energy_mj: (rng.next_u64() % 1000) as f64 / 4.0,
                };
                delta.per_suite.insert(suite, usage);
            }
        }
        delta
    }

    /// Folding deltas one at a time equals adding their pre-summed total,
    /// in every field, and `traffic` always reads `traffic_of(&ops)`.
    #[test]
    fn counters_add_is_a_sum() {
        use rand::SeedableRng;
        let mut rng = egka_hash::ChaChaRng::seed_from_u64(0xc0de);
        for n in [1usize, 2, 7, 16] {
            let deltas: Vec<Counters> = (0..n).map(|_| random_delta(&mut rng)).collect();
            let mut folded = Counters::default();
            for d in &deltas {
                folded.add(d);
            }
            // Every field summed directly, without `Counters::add`.
            let sum = |f: fn(&Counters) -> u64| deltas.iter().map(f).sum::<u64>();
            let mut ops = OpCounts::new();
            let mut per_suite: BTreeMap<SuiteId, SuiteUsage> = BTreeMap::new();
            let mut traffic = TrafficStats::default();
            for d in &deltas {
                assert_eq!(d.traffic, traffic_of(&d.ops));
                ops.merge(&d.ops);
                traffic.tx_bits += d.traffic.tx_bits;
                traffic.rx_bits += d.traffic.rx_bits;
                traffic.tx_bits_actual += d.traffic.tx_bits_actual;
                traffic.rx_bits_actual += d.traffic.rx_bits_actual;
                traffic.msgs_tx += d.traffic.msgs_tx;
                traffic.msgs_rx += d.traffic.msgs_rx;
                for (&suite, usage) in &d.per_suite {
                    let e = per_suite.entry(suite).or_default();
                    e.rekeys += usage.rekeys;
                    e.energy_mj += usage.energy_mj;
                }
            }
            let total = Counters {
                events_applied: sum(|d| d.events_applied),
                events_rejected: sum(|d| d.events_rejected),
                events_cancelled: sum(|d| d.events_cancelled),
                rekeys_executed: sum(|d| d.rekeys_executed),
                full_gka_runs: sum(|d| d.full_gka_runs),
                rekeys_failed: sum(|d| d.rekeys_failed),
                groups_stalled: sum(|d| d.groups_stalled),
                groups_dissolved: sum(|d| d.groups_dissolved),
                steps_retried: sum(|d| d.steps_retried),
                energy_mj: deltas.iter().map(|d| d.energy_mj).sum(),
                ops,
                traffic,
                per_suite,
            };
            let mut once = Counters::default();
            once.add(&total);
            assert_eq!(folded, once, "{n} deltas");
            assert_eq!(folded.traffic, traffic_of(&folded.ops));
            assert_eq!(folded.traffic, total.traffic);
            assert_eq!(folded.reconcile(&total), Ok(()));
        }
    }

    #[test]
    fn reconcile_checks_every_field() {
        let mut rng = {
            use rand::SeedableRng;
            egka_hash::ChaChaRng::seed_from_u64(7)
        };
        let base = random_delta(&mut rng);
        assert_eq!(base.reconcile(&base), Ok(()));
        let mut off = base.clone();
        off.energy_mj *= 1.0 + 1e-12;
        off.per_suite
            .values_mut()
            .for_each(|u| u.energy_mj *= 1.0 - 1e-12);
        assert_eq!(off.reconcile(&base), Ok(()), "within the f64 tolerance");
        let nudges: [fn(&mut Counters); 6] = [
            |c| c.full_gka_runs += 1,
            |c| c.groups_dissolved += 1,
            |c| c.energy_mj *= 1.0 + 1e-6,
            |c| c.traffic.msgs_rx += 1,
            |c| c.ops.comp[0] += 1,
            |c| c.per_suite.entry(SuiteId::Ssn).or_default().rekeys += 1,
        ];
        for (i, nudge) in nudges.iter().enumerate() {
            let mut off = base.clone();
            nudge(&mut off);
            assert!(off.reconcile(&base).is_err(), "nudge {i} went unnoticed");
        }
    }
}
