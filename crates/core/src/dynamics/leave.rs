//! The Leave and Partition protocols (paper §7, two rounds each).
//!
//! Both are the same *reduced re-key*: the departing user(s) are cut out of
//! the ring, the remaining **odd-indexed** users (paper indexing
//! `j ∈ {1, 3, 5, …}`; 1-based) refresh their exponents and GQ commitments,
//! everyone recomputes `X'_i` over the closed ring, and a single batch
//! verification (paper eq. (10)/(12)) plus Lemma 1 guard the new key
//!
//! ```text
//! K' = ∏_{i ∉ L} g^{r_i r_{i+1}}        (eqs. (11)/(13))
//! ```
//!
//! Even-indexed members keep their old exponent **and reuse their old GQ
//! commitment `τ_i` against the fresh challenge `c̄`** — exactly as
//! specified, soundness caveat documented in [`crate::dynamics`].
//!
//! Every remaining member is a sans-IO round machine; [`LeaveRun`] is the
//! pumpable execution, [`leave`]/[`partition`] the blocking wrappers.

use std::collections::BTreeSet;
use std::sync::Arc;

use egka_bigint::Ubig;
use egka_energy::complexity::{LP_R1_BITS, LP_R2_BITS};
use egka_energy::{CompOp, Meter, Scheme};
use egka_hash::ChaChaRng;
use egka_sig::GqSecretKey;
use rand::SeedableRng;

use crate::bd;
use crate::group::{GroupSession, MemberState};
use crate::ident::UserId;
use crate::machine::{Dest, Engine, Execution, Faults, Metered, Outgoing, Phase, PhaseOut, Pump};
use crate::params::Params;
use crate::proposed::NodeReport;
use crate::suite::{suite_run_over_exec, SuiteRun};
use crate::wire::{kind, Reader, Writer};

/// Result of a Leave or Partition run.
#[derive(Clone, Debug)]
pub struct LeaveOutcome {
    /// The post-event session (remaining members, original ring order).
    pub session: GroupSession,
    /// Per-remaining-member reports, new-ring order.
    pub reports: Vec<NodeReport>,
    /// Positions (in the new ring) of the members that refreshed
    /// (the paper's `v` odd-indexed users).
    pub refreshers: Vec<usize>,
}

/// One remaining member's protocol state: its own secrets plus its view of
/// the surviving ring's public values.
struct NodeState {
    k: usize,
    n_rem: usize,
    id: UserId,
    gq_key: GqSecretKey,
    /// Each survivor's `H(U_j)⁻¹`, new-ring order (one list per run).
    h_invs: Arc<[Ubig]>,
    params: Arc<Params>,
    meter: Meter,
    rng: ChaChaRng,
    refresher: bool,
    ring_ids: Vec<UserId>,
    // Own secret state (refreshed in Round 1 if `refresher`).
    r: Ubig,
    tau: Ubig,
    t: Ubig,
    z: Ubig,
    // Public view of the remaining ring, by new-ring position.
    zs: Vec<Ubig>,
    ts: Vec<Ubig>,
    xs: Vec<Ubig>,
    ss: Vec<Ubig>,
    challenge: Ubig,
    bind: Vec<u8>,
    derived: Option<Ubig>,
}

impl Metered for NodeState {
    fn meter(&self) -> &Meter {
        &self.meter
    }
}

fn node_machine(state: NodeState, peers: Vec<egka_medium::NodeId>) -> Engine<NodeState> {
    let n_rem = state.n_rem;
    let k = state.k;
    // One recipient list (everyone but self), shared by all three sending
    // phases.
    let others: Vec<egka_medium::NodeId> = peers
        .iter()
        .enumerate()
        .filter(|&(j, _)| j != k)
        .map(|(_, &id)| id)
        .collect();
    let others_r2 = others.clone();
    let others_ctrl = others.clone();
    let mut phases: Vec<Phase<NodeState>> = Vec::new();
    // ---- Round 1: refreshers broadcast fresh (z', t') ----
    phases.push(Phase::immediate(move |s: &mut NodeState, _| {
        if !s.refresher {
            return PhaseOut::Send(Vec::new());
        }
        let share = bd::round1_share(&mut s.rng, &s.params.bd);
        s.meter.record(CompOp::ModExp); // z'_j
        let (tau, t) = s.params.gq.commit(&mut s.rng); // τ'^e: half of the SignGen charged below
        let mut w = Writer::new();
        w.put_id(s.id).put_ubig(&share.z).put_ubig(&t);
        s.r = share.r;
        s.z = share.z.clone();
        s.zs[s.k] = share.z;
        s.tau = tau;
        s.t = t.clone();
        s.ts[s.k] = t;
        PhaseOut::Send(vec![Outgoing {
            to: Dest::Multicast(others.clone()),
            kind: kind::LP_ROUND1,
            payload: w.finish(),
            nominal_bits: LP_R1_BITS,
        }])
    }));
    // ---- Absorb Round 1, derive (X'_k, s̄_k); controller sends last ----
    // The expected count is patched in by the builder (depends on v).
    phases.push(Phase::gather(
        kind::LP_ROUND1,
        0,
        move |s: &mut NodeState, pkts| {
            for pkt in pkts {
                let mut r = Reader::new(&pkt.payload);
                let id = r.get_id().expect("round-1 id");
                let z = r.get_ubig().expect("round-1 z");
                let t = r.get_ubig().expect("round-1 t");
                r.expect_end().expect("no trailing bytes");
                let j = s
                    .ring_ids
                    .iter()
                    .position(|&u| u == id)
                    .expect("round-1 sender survives in the ring");
                s.zs[j] = z;
                s.ts[j] = t;
            }
            let x = bd::round2_x(
                &s.params.bd,
                &s.r,
                &s.zs[(s.k + n_rem - 1) % n_rem],
                &s.zs[(s.k + 1) % n_rem],
            );
            s.meter.record(CompOp::ModExp);
            s.meter.record(CompOp::ModInv);
            let z_prod = s.params.bd.p.product(&s.zs);
            let t_agg = s.params.gq.aggregate_commitments(&s.ts);
            s.bind = z_prod.to_bytes_be();
            s.challenge = s.params.gq.shared_challenge(&t_agg, &s.bind);
            let resp = s.params.gq.respond(&s.gq_key, &s.tau, &s.challenge);
            // Fresh commit + respond for refreshers; commitment *reuse* +
            // respond for the rest — the paper charges one signature
            // generation either way (Table 5's even-row joules include it).
            s.meter.record(CompOp::SignGen(Scheme::Gq));
            s.xs[s.k] = x;
            s.ss[s.k] = resp;
            PhaseOut::Send(if s.k == 0 {
                Vec::new() // controller broadcasts last
            } else {
                vec![round2_msg(s, &others_r2)]
            })
        },
    ));
    // ---- Absorb Round 2 (controller then answers) ----
    phases.push(Phase::gather(
        kind::LP_ROUND2,
        n_rem - 1,
        move |s: &mut NodeState, pkts| {
            for pkt in pkts {
                let mut r = Reader::new(&pkt.payload);
                let id = r.get_id().expect("round-2 id");
                let x = r.get_ubig().expect("round-2 X");
                let resp = r.get_ubig().expect("round-2 s");
                r.expect_end().expect("no trailing bytes");
                let j = s
                    .ring_ids
                    .iter()
                    .position(|&u| u == id)
                    .expect("round-2 sender survives in the ring");
                s.xs[j] = x;
                s.ss[j] = resp;
            }
            PhaseOut::Send(if s.k == 0 {
                vec![round2_msg(s, &others_ctrl)]
            } else {
                Vec::new()
            })
        },
    ));
    // ---- Verification + key ----
    phases.push(Phase::immediate(move |s: &mut NodeState, _| {
        let ok = s
            .params
            .gq
            .aggregate_verify(&s.h_invs, &s.ss, &s.challenge, &s.bind);
        s.meter.record(CompOp::SignVerify(Scheme::Gq));
        assert!(ok, "batch verification (eq. 10/12) failed");
        assert!(bd::lemma1_holds(&s.params.bd, &s.xs), "Lemma 1 failed");
        let ring: Vec<Ubig> = (0..n_rem)
            .map(|j| s.xs[(s.k + j) % n_rem].clone())
            .collect();
        let key = bd::compute_key(&s.params.bd, &s.r, &s.zs[(s.k + n_rem - 1) % n_rem], &ring);
        s.meter.record(CompOp::ModExp);
        s.derived = Some(key.clone());
        PhaseOut::Done(key)
    }));
    Engine::new(state, phases)
}

fn round2_msg(s: &NodeState, targets: &[egka_medium::NodeId]) -> Outgoing {
    let mut w = Writer::new();
    w.put_id(s.id).put_ubig(&s.xs[s.k]).put_ubig(&s.ss[s.k]);
    Outgoing {
        to: Dest::Multicast(targets.to_vec()),
        kind: kind::LP_ROUND2,
        payload: w.finish(),
        nominal_bits: LP_R2_BITS,
    }
}

/// One in-flight reduced rekey (Leave or Partition).
pub struct LeaveRun {
    exec: Execution<NodeState>,
    base: GroupSession,
    remaining: Vec<usize>,
    refreshes: Vec<bool>,
}

impl LeaveRun {
    /// Prepares a reduced rekey removing `leavers` (ring positions in
    /// `session`).
    ///
    /// # Panics
    /// As [`partition`].
    pub fn new(
        session: &GroupSession,
        leavers: &BTreeSet<usize>,
        seed: u64,
        faults: &Faults,
    ) -> Self {
        let n = session.n();
        assert!(leavers.iter().all(|&l| l < n), "leaver out of range");
        let remaining: Vec<usize> = (0..n).filter(|i| !leavers.contains(i)).collect();
        let n_rem = remaining.len();
        assert!(n_rem >= 3, "at least three members must remain");
        let params = Arc::new(session.params.clone());

        // Paper's "odd-indexed" is 1-based: U_1, U_3, … ⇒ 0-based even ring
        // positions. Members that have never committed a (τ, t) — e.g. a
        // freshly joined user — must refresh regardless of parity.
        let refreshes: Vec<bool> = remaining
            .iter()
            .map(|&p| p % 2 == 0 || session.members[p].t.is_zero())
            .collect();
        for (k, &p) in remaining.iter().enumerate() {
            assert!(
                refreshes[k] || !session.members[p].t.is_zero(),
                "non-refreshing member U{} has no stored GQ commitment",
                session.members[p].id.0
            );
        }
        let v = refreshes.iter().filter(|&&r| r).count();
        let ring_ids: Vec<UserId> = remaining.iter().map(|&p| session.members[p].id).collect();
        let h_invs: Arc<[Ubig]> = remaining
            .iter()
            .map(|&p| session.members[p].gq().h_inv(&params.gq).clone())
            .collect();

        let exec = Execution::new(&ring_ids, faults, |k, net_ids| {
            let p = remaining[k];
            let m = &session.members[p];
            let state = NodeState {
                k,
                n_rem,
                id: m.id,
                gq_key: m.gq().clone(),
                h_invs: Arc::clone(&h_invs),
                params: Arc::clone(&params),
                meter: Meter::new(),
                rng: ChaChaRng::seed_from_u64(
                    seed ^ (k as u64).wrapping_mul(0xbf58_476d_1ce4_e5b9),
                ),
                refresher: refreshes[k],
                ring_ids: ring_ids.clone(),
                r: m.r.clone(),
                tau: m.tau.clone(),
                t: m.t.clone(),
                z: m.z.clone(),
                zs: remaining
                    .iter()
                    .map(|&q| session.members[q].z.clone())
                    .collect(),
                ts: remaining
                    .iter()
                    .map(|&q| session.members[q].t.clone())
                    .collect(),
                xs: vec![Ubig::zero(); n_rem],
                ss: vec![Ubig::zero(); n_rem],
                challenge: Ubig::zero(),
                bind: Vec::new(),
                derived: None,
            };
            let mut engine = node_machine(state, net_ids.to_vec());
            // Round-1 fan-in depends on the refresher census: a refresher
            // hears the other v−1, everyone else hears all v.
            let expect = if refreshes[k] { v - 1 } else { v };
            engine.set_gather_count(1, expect);
            engine
        });
        LeaveRun {
            exec,
            base: session.clone(),
            remaining,
            refreshes,
        }
    }

    /// Assembles the outcome.
    ///
    /// # Panics
    /// Panics if the run is unfinished, keys diverged, or the key did not
    /// change.
    pub fn finish(self) -> LeaveOutcome {
        assert!(self.exec.is_done(), "finish() before the run completed");
        let n_rem = self.remaining.len();
        let new_key = self
            .exec
            .machine(0)
            .state()
            .derived
            .clone()
            .expect("derived");
        for k in 0..n_rem {
            assert_eq!(
                self.exec.machine(k).state().derived.as_ref(),
                Some(&new_key),
                "leave keys diverged"
            );
        }
        assert_ne!(new_key, self.base.key, "key must change on departure");

        let members: Vec<MemberState> = (0..n_rem)
            .map(|k| {
                let s = self.exec.machine(k).state();
                let m = &self.base.members[self.remaining[k]];
                MemberState {
                    id: m.id,
                    r: s.r.clone(),
                    z: s.z.clone(),
                    tau: s.tau.clone(),
                    t: s.t.clone(),
                    cred: m.cred.clone(),
                }
            })
            .collect();
        let reports: Vec<NodeReport> = (0..n_rem)
            .map(|k| NodeReport {
                id: self.base.members[self.remaining[k]].id,
                key: new_key.clone(),
                counts: self.exec.node_counts(k),
            })
            .collect();
        LeaveOutcome {
            session: GroupSession {
                params: self.base.params.clone(),
                members,
                key: new_key,
            },
            reports,
            refreshers: self
                .refreshes
                .iter()
                .enumerate()
                .filter(|&(_, &r)| r)
                .map(|(k, _)| k)
                .collect(),
        }
    }
}

suite_run_over_exec!(LeaveRun, 0, |run| {
    let out = run.finish();
    (out.reports, out.session)
});

/// Single-user Leave: `leaver` is the position in `session`'s ring.
///
/// # Panics
/// Panics if `leaver` is out of range, if fewer than 3 members remain, or
/// on any verification failure.
pub fn leave(session: &GroupSession, leaver: usize, seed: u64) -> LeaveOutcome {
    reduced_rekey(session, &BTreeSet::from([leaver]), seed)
}

/// Partition: all `leavers` (ring positions) depart at once.
///
/// # Panics
/// As [`leave`]; also panics if `leavers` is empty or removes everyone.
pub fn partition(session: &GroupSession, leavers: &[usize], seed: u64) -> LeaveOutcome {
    let set: BTreeSet<usize> = leavers.iter().copied().collect();
    assert!(!set.is_empty(), "partition must remove at least one member");
    reduced_rekey(session, &set, seed)
}

fn reduced_rekey(session: &GroupSession, leavers: &BTreeSet<usize>, seed: u64) -> LeaveOutcome {
    let mut run = LeaveRun::new(session, leavers, seed, &Faults::none());
    loop {
        match run.pump() {
            Pump::Done => return run.finish(),
            Pump::Progressed => {}
            other => panic!("reduced rekey cannot {other:?} on a reliable medium"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dynamics::testutil::session;
    use egka_energy::complexity::{proposed_leave, proposed_partition};

    #[test]
    fn leave_agrees_and_preserves_invariant() {
        let (_, s0) = session(6, 10);
        let out = leave(&s0, 3, 50); // U4 (1-based even) departs
        assert_eq!(out.session.n(), 5);
        assert!(out.session.invariant_holds());
        assert_ne!(out.session.key, s0.key);
    }

    #[test]
    fn leave_counts_match_table5_closed_form() {
        // n = 8, leaver at 0-based 3 (1-based 4, even) ⇒ v = 4 refreshers.
        let (_, s0) = session(8, 11);
        let out = leave(&s0, 3, 51);
        let roles = proposed_leave(8, 4);
        let odd_want = &roles[0].counts;
        let even_want = &roles[1].counts;
        assert_eq!(out.refreshers.len(), 4);
        for (k, rep) in out.reports.iter().enumerate() {
            let want = if out.refreshers.contains(&k) {
                odd_want
            } else {
                even_want
            };
            let tag = format!("pos {k} ({})", rep.id);
            assert_eq!(rep.counts.exps(), want.exps(), "{tag} exps");
            assert_eq!(rep.counts.tx_bits, want.tx_bits, "{tag} tx");
            assert_eq!(rep.counts.rx_bits, want.rx_bits, "{tag} rx");
            assert_eq!(rep.counts.msgs_tx, want.msgs_tx, "{tag} msgs tx");
            assert_eq!(rep.counts.msgs_rx, want.msgs_rx, "{tag} msgs rx");
        }
    }

    #[test]
    fn partition_removes_several_and_agrees() {
        let (_, s0) = session(9, 12);
        let out = partition(&s0, &[1, 5, 7], 52);
        assert_eq!(out.session.n(), 6);
        assert!(out.session.invariant_holds());
    }

    #[test]
    fn partition_counts_match_closed_form() {
        // n = 10, leavers at 0-based {1, 3} (1-based 2 and 4, both even) ⇒
        // remaining = 8, refreshers v = 5 (1-based 1,3,5,7,9).
        let (_, s0) = session(10, 13);
        let out = partition(&s0, &[1, 3], 53);
        let roles = proposed_partition(10, 2, 5);
        assert_eq!(out.refreshers.len(), 5);
        for (k, rep) in out.reports.iter().enumerate() {
            let want = if out.refreshers.contains(&k) {
                &roles[0].counts
            } else {
                &roles[1].counts
            };
            assert_eq!(rep.counts.exps(), want.exps(), "pos {k} exps");
            assert_eq!(rep.counts.rx_bits, want.rx_bits, "pos {k} rx");
        }
    }

    #[test]
    fn departed_member_cannot_compute_new_key() {
        // The leaver knows K and all old shares; the new key must differ
        // from anything derivable with its stale r (spot check: it differs
        // from the old key and from K^anything trivial).
        let (_, s0) = session(5, 14);
        let out = leave(&s0, 2, 54);
        assert_ne!(out.session.key, s0.key);
    }

    #[test]
    #[should_panic(expected = "at least three members")]
    fn leave_below_minimum_panics() {
        let (_, s0) = session(3, 15);
        let _ = leave(&s0, 1, 55);
    }
}
