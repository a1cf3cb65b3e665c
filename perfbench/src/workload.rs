//! The three workloads and their seeded, closed-loop event generator.

use egka_core::suite::SuiteId;
use egka_core::UserId;
use egka_hash::ChaChaRng;
use egka_service::{GroupId, MembershipEvent};
use rand::{Rng, SeedableRng};

/// Which public parameters the service runs on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Params {
    /// `Pkg::setup(.., SecurityProfile::Toy)`: 256/96-bit BD, 256-bit GQ.
    Toy,
    /// `paper_fixture()`: the paper's 1024/160-bit BD and 1024-bit GQ.
    Paper,
}

/// How many membership events each epoch carries and where they land.
/// The count per epoch is fixed, so every epoch asks for the same work.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Churn {
    pub per_epoch: u32,
    /// The first `hot_groups` groups draw a `hot_share` of the events;
    /// the rest spread uniformly over the other groups. With no hot
    /// groups every event picks a group uniformly.
    pub hot_groups: u32,
    pub hot_share: f64,
    /// Each draw replaces a member of a distinct group: a leave and a
    /// join in the same group and epoch, which the planner runs as one
    /// rekey at an unchanged group size. `per_epoch` then counts
    /// replacements, each two events.
    pub replace: bool,
}

/// One named workload. Every field is fixed per workload: a run's work
/// depends only on the spec, the seed and `--seconds`.
#[derive(Clone, Debug)]
pub struct Spec {
    pub name: &'static str,
    pub params: Params,
    pub suite: SuiteId,
    pub groups: u32,
    /// Founding sizes are `min_size + (g % size_span)`; each group's size
    /// stays within one of its founding size for the whole run.
    pub min_size: u32,
    pub size_span: u32,
    pub churn: Churn,
    /// Runs over `RadioProfile::sensor_100kbps` with this per-delivery
    /// loss probability.
    pub radio_loss: Option<f64>,
    /// Durable `FileStore` with a compacting snapshot every this many
    /// epochs.
    pub snapshot_every: Option<u64>,
    /// Epochs run inside set-up, before the timed window.
    pub warmup_epochs: u64,
    /// Timed epochs per `--seconds`: fixed per workload (not measured), so
    /// a given `--seconds` always runs the same number of epochs.
    pub epochs_per_second: f64,
}

impl Spec {
    /// Timed epochs for a run of `seconds`.
    pub fn epochs(&self, seconds: u64) -> u64 {
        (self.epochs_per_second * seconds as f64).round().max(1.0) as u64
    }
}

/// Every workload, in `BENCHMARK.json` order.
pub fn all() -> [Spec; 3] {
    [
        // Per-rekey machinery, WAL and snapshots at their largest share:
        // Toy-size crypto, thousands of small groups, uncoalesced churn.
        Spec {
            name: "toy_fleet_durable",
            params: Params::Toy,
            suite: SuiteId::Proposed,
            groups: 1500,
            min_size: 4,
            size_span: 3,
            churn: Churn {
                per_epoch: 150,
                hot_groups: 0,
                hot_share: 0.0,
                replace: false,
            },
            radio_loss: None,
            // Every fifth epoch snapshots the fleet: a fifth of the epochs
            // (the p90 tail) and about a tenth of the window, so snapshot
            // cost reaches `events_per_s` and `epoch_p90_ms`.
            snapshot_every: Some(5),
            warmup_epochs: 3,
            epochs_per_second: 7.0,
        },
        // The paper's parameter set: 1024-bit modexp dominates, hot groups
        // coalesce many events into one rekey.
        Spec {
            name: "paper_hot_groups",
            params: Params::Paper,
            suite: SuiteId::Proposed,
            groups: 60,
            min_size: 8,
            size_span: 3,
            churn: Churn {
                per_epoch: 24,
                hot_groups: 4,
                hot_share: 0.75,
                replace: false,
            },
            radio_loss: None,
            snapshot_every: None,
            warmup_epochs: 2,
            epochs_per_second: 9.0,
        },
        // secp160r1 ECDSA over the lossy 100 kbps radio: the only workload
        // that runs EC code, the radio medium and the retry path.
        Spec {
            name: "paper_ecdsa_radio",
            params: Params::Paper,
            suite: SuiteId::BdEcdsa,
            groups: 40,
            min_size: 4,
            size_span: 1,
            churn: Churn {
                per_epoch: 6,
                hot_groups: 0,
                hot_share: 0.0,
                replace: true,
            },
            radio_loss: Some(0.01),
            snapshot_every: None,
            warmup_epochs: 2,
            epochs_per_second: 5.0,
        },
    ]
}

/// Looks a workload up by name.
pub fn by_name(name: &str) -> Option<Spec> {
    all().into_iter().find(|s| s.name == name)
}

/// The seeded load generator: a mirror of every group's membership, so
/// each event it emits is valid by construction (joins use fresh ids,
/// leaves pick a member that was in the group when the epoch began).
/// Each event moves its group's size back towards the founding size, so
/// join and leave rates balance and the work per epoch stays put.
pub struct EventGen {
    rng: ChaChaRng,
    spec: Spec,
    groups: Vec<Group>,
    next_user: u32,
}

struct Group {
    id: GroupId,
    target: usize,
    members: Vec<UserId>,
}

impl EventGen {
    /// The generator for `spec` under `seed`, with every group at its
    /// founding membership.
    pub fn new(spec: &Spec, seed: u64) -> Self {
        let mut next_user = 0u32;
        let groups = (0..spec.groups)
            .map(|g| {
                let size = spec.min_size + g % spec.size_span;
                let members = (next_user..next_user + size).map(UserId).collect();
                next_user += size;
                Group {
                    id: GroupId::from(g),
                    target: size as usize,
                    members,
                }
            })
            .collect();
        EventGen {
            rng: ChaChaRng::seed_from_u64(seed ^ 0x6e_6b_65_79),
            spec: spec.clone(),
            groups,
            next_user,
        }
    }

    /// Every group's current membership as the generator mirrors it
    /// (the founding membership before the first epoch), in group order.
    pub fn memberships(&self) -> impl Iterator<Item = (GroupId, &[UserId])> {
        self.groups.iter().map(|g| (g.id, g.members.as_slice()))
    }

    /// The next epoch's events, in submission order.
    pub fn next_epoch(&mut self) -> Vec<(GroupId, MembershipEvent)> {
        let churn = self.spec.churn;
        if churn.replace {
            return self.replacements(churn.per_epoch);
        }
        let n = self.groups.len() as u64;
        let hot = u64::from(churn.hot_groups).min(n);
        let mut per_group = vec![0u32; self.groups.len()];
        for _ in 0..churn.per_epoch {
            let u = (self.rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
            let g = if hot > 0 && u < churn.hot_share {
                self.rng.next_u64() % hot
            } else {
                hot + self.rng.next_u64() % (n - hot)
            };
            per_group[g as usize] += 1;
        }
        let mut events = Vec::with_capacity(churn.per_epoch as usize);
        for (group, &k) in self.groups.iter_mut().zip(&per_group) {
            // Members present when the epoch began: only these may leave,
            // so no leave cancels a join queued in the same epoch.
            let mut leavable = group.members.len();
            for _ in 0..k {
                let join = match group.members.len().cmp(&group.target) {
                    std::cmp::Ordering::Less => true,
                    std::cmp::Ordering::Greater => false,
                    std::cmp::Ordering::Equal => self.rng.next_u64() & 1 == 0,
                };
                if join || leavable == 0 {
                    let u = UserId(self.next_user);
                    self.next_user += 1;
                    group.members.push(u);
                    events.push((group.id, MembershipEvent::Join(u)));
                } else {
                    let at = (self.rng.next_u64() % leavable as u64) as usize;
                    leavable -= 1;
                    events.push((group.id, MembershipEvent::Leave(group.members.remove(at))));
                }
            }
        }
        events
    }

    /// `k` member replacements in `k` distinct groups.
    fn replacements(&mut self, k: u32) -> Vec<(GroupId, MembershipEvent)> {
        let mut order: Vec<usize> = (0..self.groups.len()).collect();
        let k = (k as usize).min(order.len());
        for i in 0..k {
            let j = i + (self.rng.next_u64() % (order.len() - i) as u64) as usize;
            order.swap(i, j);
        }
        let mut chosen = order[..k].to_vec();
        chosen.sort_unstable();
        let mut events = Vec::with_capacity(2 * k);
        for g in chosen {
            let group = &mut self.groups[g];
            let at = (self.rng.next_u64() % group.members.len() as u64) as usize;
            let leaver = group.members.remove(at);
            let joiner = UserId(self.next_user);
            self.next_user += 1;
            group.members.push(joiner);
            events.push((group.id, MembershipEvent::Leave(leaver)));
            events.push((group.id, MembershipEvent::Join(joiner)));
        }
        events
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream(spec: &Spec, seed: u64, epochs: usize) -> Vec<(GroupId, MembershipEvent)> {
        let mut gen = EventGen::new(spec, seed);
        (0..epochs).flat_map(|_| gen.next_epoch()).collect()
    }

    #[test]
    fn same_seed_same_event_stream() {
        for spec in all() {
            let a = stream(&spec, 7, 20);
            assert!(!a.is_empty(), "{}", spec.name);
            assert_eq!(a, stream(&spec, 7, 20), "{}", spec.name);
            assert_ne!(a, stream(&spec, 8, 20), "{}", spec.name);
        }
    }

    #[test]
    fn sizes_stay_within_one_of_founding_and_joins_balance_leaves() {
        for spec in all() {
            let mut gen = EventGen::new(&spec, 3);
            let (mut joins, mut leaves) = (0i64, 0i64);
            for _ in 0..200 {
                for (_, ev) in gen.next_epoch() {
                    match ev {
                        MembershipEvent::Join(_) => joins += 1,
                        MembershipEvent::Leave(_) => leaves += 1,
                        MembershipEvent::MergeWith(_) => unreachable!(),
                    }
                }
            }
            assert!(
                (joins - leaves).abs() <= i64::from(spec.groups),
                "{}",
                spec.name
            );
            for g in &gen.groups {
                assert!(g.members.len().abs_diff(g.target) <= 1, "{}", spec.name);
            }
        }
    }
}
