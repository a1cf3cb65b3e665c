//! The Merge protocol (paper §7, three rounds, `k = 2` groups).
//!
//! The two controllers `U_1` (group A) and `U_{n+1}` (group B) refresh
//! their exponents, exchange signed round-1 messages carrying their fresh
//! share and their group's *edge* share, derive a pairwise DH key, and then
//! swap the two half-keys
//!
//! ```text
//! K*_A = K_A · (z_2 z_n)^{−r_1} · (z_2 z_{n+m})^{r'_1}          (eq. (7))
//! K*_B = K_B · (z_n z_{n+2})^{r'_{n+1}} · (z_{n+2} z_{n+m})^{−r_{n+1}}  (eq. (8))
//! ```
//!
//! through symmetric envelopes (under each group's old key and under the
//! controllers' DH key), so that every member of the merged ring computes
//! `K' = K*_A · K*_B` (eq. (9)). Only the two controllers exponentiate
//! (4 each); all bystanders just decrypt twice.
//!
//! Controllers and bystanders are sans-IO round machines; [`MergeRun`] is
//! the pumpable execution, [`merge`]/[`merge_many`] the blocking wrappers.

use std::sync::Arc;

use egka_bigint::{mod_mul, Ubig};
use egka_energy::complexity::{MERGE_R1_BITS, MERGE_R2_BITS, MERGE_R3_BITS};
use egka_energy::{CompOp, Meter, Scheme};
use egka_hash::ChaChaRng;
use egka_symmetric::Envelope;
use rand::SeedableRng;

use crate::dynamics::{k_star, open_key, read_signed, seal_key, signed, GroupEnvelope};
use crate::group::{GroupSession, MemberState};
use crate::ident::UserId;
use crate::machine::{Dest, Engine, Execution, Faults, Metered, Outgoing, Phase, PhaseOut, Pump};
use crate::params::Params;
use crate::proposed::NodeReport;
use crate::suite::{suite_run_over_exec, SuiteRun};
use crate::wire::{kind, Reader, Writer};

/// Result of a Merge run.
#[derive(Clone, Debug)]
pub struct MergeOutcome {
    /// The merged session: ring = group A then group B, controllers'
    /// exponents refreshed.
    pub session: GroupSession,
    /// Per-node reports, merged-ring order.
    pub reports: Vec<NodeReport>,
}

struct NodeState {
    params: Arc<Params>,
    meter: Meter,
    rng: ChaChaRng,
    /// Own group's old key.
    old_key: GroupEnvelope,
    derived: Option<Ubig>,
    // Controller scratch/outputs.
    r_new: Option<Ubig>,
    z_new: Option<Ubig>,
    k_dh: Option<Ubig>,
    k_star: Option<Ubig>,
    // Bystander scratch.
    own_half: Option<Ubig>,
}

impl Metered for NodeState {
    fn meter(&self) -> &Meter {
        &self.meter
    }
}

/// Which side of eq. (7)/(8) a controller computes.
struct CtrlSpec {
    member: MemberState,
    /// Own group's current key (`K_A` / `K_B`).
    group_key: Ubig,
    /// The peer controller's identity.
    peer_id: UserId,
    /// The peer controller's `H(ID)⁻¹`.
    peer_inv: Ubig,
    /// `z_2` for A; `z_{n+2}` for B (own group's second member).
    z_second: Ubig,
    /// `z_n` for A; `z_{n+m}` for B (own group's edge share).
    z_edge: Ubig,
}

fn controller_phases(
    spec: CtrlSpec,
    peer_ctrl: egka_medium::NodeId,
    r2_targets: Vec<egka_medium::NodeId>,
    r3_targets: Vec<egka_medium::NodeId>,
) -> Vec<Phase<NodeState>> {
    let CtrlSpec {
        member,
        group_key,
        peer_id,
        peer_inv,
        z_second,
        z_edge,
    } = spec;
    let member2 = member.clone();
    let own_id = member.id;
    let edge_for_announce = z_edge.clone();
    vec![
        // ---- Round 1: refresh and announce to the peer controller ----
        // m'_1 = U_1 ‖ z̃_1 ‖ z_n ‖ σ'_1  (symmetric for B).
        Phase::immediate(move |s: &mut NodeState, _| {
            let r_new = loop {
                let r = egka_bigint::random_below(&mut s.rng, &s.params.bd.q);
                if !r.is_zero() {
                    break r;
                }
            };
            let z_new = s.params.bd.g_pow(&r_new);
            s.meter.record(CompOp::ModExp);
            let payload = signed(
                &s.params.gq,
                &mut s.rng,
                (member.id, member.gq()),
                &[&z_new, &edge_for_announce],
            );
            s.meter.record(CompOp::SignGen(Scheme::Gq));
            s.r_new = Some(r_new);
            s.z_new = Some(z_new);
            PhaseOut::Send(vec![Outgoing {
                to: Dest::Multicast(vec![peer_ctrl]),
                kind: kind::MERGE_R1,
                payload,
                nominal_bits: MERGE_R1_BITS,
            }])
        }),
        // ---- Round 2: verify peer, derive DH, compute the half-key ----
        Phase::gather(kind::MERGE_R1, 1, move |s: &mut NodeState, pkts| {
            let peer = read_signed(&s.params.gq, &pkts[0].payload, (peer_id, &peer_inv));
            s.meter.record(CompOp::SignVerify(Scheme::Gq));
            assert!(peer.is_some(), "merge round-1 signature rejected");
            let [z_peer, edge_peer] = peer.expect("checked above");
            let r_new = s.r_new.as_ref().expect("refreshed");
            let k_dh = s.params.bd.p.pow(&z_peer, r_new);
            s.meter.record(CompOp::ModExp);
            // K*_A = K_A · (z_2 z_n)^{−r_1} · (z_2 z_{n+m})^{r'_1}
            // K*_B = K_B · (z_n z_{n+2})^{r'_{n+1}} · (z_{n+2} z_{n+m})^{−r_{n+1}}
            // Both pair the own second share with the own edge (power −r)
            // and with the peer's edge (power r').
            let half = k_star(
                &s.params.bd,
                &group_key,
                &z_second,
                &z_edge,
                &member2.r,
                &edge_peer,
                r_new,
            );
            // The paper's operation count: the inversion and both powers.
            s.meter.record(CompOp::ModInv);
            s.meter.record(CompOp::ModExp);
            s.meter.record(CompOp::ModExp);
            // Seal the half-key under the group key and under the DH key.
            let env_group = seal_key(&mut s.rng, s.old_key.get(), &half, member2.id, None);
            s.meter.record(CompOp::SymEnc);
            let dh = Envelope::from_key_material(&k_dh.to_bytes_be());
            let env_dh = seal_key(&mut s.rng, &dh, &half, member2.id, None);
            s.meter.record(CompOp::SymEnc);
            let mut w = Writer::new();
            w.put_id(member2.id)
                .put_bytes(&env_group)
                .put_bytes(&env_dh);
            s.k_dh = Some(k_dh);
            s.k_star = Some(half);
            // Own bystanders + the peer controller.
            PhaseOut::Send(vec![Outgoing {
                to: Dest::Multicast(r2_targets.clone()),
                kind: kind::MERGE_R2,
                payload: w.finish(),
                nominal_bits: MERGE_R2_BITS,
            }])
        }),
        // ---- Round 3: re-export the peer half-key to the own group ----
        Phase::gather(kind::MERGE_R2, 1, move |s: &mut NodeState, pkts| {
            let mut r = Reader::new(&pkts[0].payload);
            let id = r.get_id().expect("r2 id");
            assert_eq!(id, peer_id);
            let _env_group = r.get_bytes().expect("r2 group envelope");
            let env_dh = r.get_bytes().expect("r2 dh envelope").to_vec();
            r.expect_end().expect("no trailing bytes");
            let dh = Envelope::from_key_material(&s.k_dh.as_ref().expect("derived").to_bytes_be());
            let (peer_half, _) = open_key(&dh, &env_dh, peer_id).expect("valid DH envelope");
            s.meter.record(CompOp::SymDec);
            let env = seal_key(&mut s.rng, s.old_key.get(), &peer_half, own_id, None);
            s.meter.record(CompOp::SymEnc);
            let mut w = Writer::new();
            w.put_id(own_id).put_bytes(&env);
            s.own_half = Some(peer_half);
            PhaseOut::Send(vec![Outgoing {
                to: Dest::Multicast(r3_targets.clone()),
                kind: kind::MERGE_R3,
                payload: w.finish(),
                nominal_bits: MERGE_R3_BITS,
            }])
        }),
        Phase::immediate(|s: &mut NodeState, _| {
            let key = mod_mul(
                s.k_star.as_ref().expect("own half"),
                s.own_half.as_ref().expect("peer half"),
                &s.params.bd.p,
            );
            s.derived = Some(key.clone());
            PhaseOut::Done(key)
        }),
    ]
}

fn bystander_phases(ctrl_id: UserId) -> Vec<Phase<NodeState>> {
    vec![
        // Own controller's R2: open own half (the DH envelope is not for
        // bystanders).
        Phase::gather(kind::MERGE_R2, 1, move |s: &mut NodeState, pkts| {
            let mut r = Reader::new(&pkts[0].payload);
            let id = r.get_id().expect("r2 id");
            assert_eq!(id, ctrl_id);
            let env_group = r.get_bytes().expect("r2 group envelope");
            let (own_half, _) =
                open_key(s.old_key.get(), env_group, ctrl_id).expect("valid envelope");
            s.meter.record(CompOp::SymDec);
            let _env_dh = r.get_bytes().expect("r2 dh envelope");
            r.expect_end().expect("no trailing bytes");
            s.own_half = Some(own_half);
            PhaseOut::Send(Vec::new())
        }),
        Phase::gather(kind::MERGE_R3, 1, move |s: &mut NodeState, pkts| {
            let mut r3 = Reader::new(&pkts[0].payload);
            let id3 = r3.get_id().expect("r3 id");
            assert_eq!(id3, ctrl_id);
            let env3 = r3.get_bytes().expect("r3 envelope");
            let (peer_half, _) = open_key(s.old_key.get(), env3, ctrl_id).expect("valid envelope");
            s.meter.record(CompOp::SymDec);
            let key = mod_mul(
                s.own_half.as_ref().expect("own half"),
                &peer_half,
                &s.params.bd.p,
            );
            s.derived = Some(key.clone());
            PhaseOut::Done(key)
        }),
    ]
}

/// One in-flight Merge of two groups.
pub struct MergeRun {
    exec: Execution<NodeState>,
    a: GroupSession,
    b: GroupSession,
}

impl MergeRun {
    /// Prepares a merge of `a` and `b` (same PKG).
    ///
    /// # Panics
    /// As [`merge`].
    pub fn new(a: &GroupSession, b: &GroupSession, seed: u64, faults: &Faults) -> Self {
        assert_eq!(
            a.params.bd.p, b.params.bd.p,
            "groups must share the BD group"
        );
        assert_eq!(a.params.gq.n, b.params.gq.n, "groups must share the PKG");
        let n = a.n();
        let m = b.n();
        assert!(n >= 2 && m >= 2, "merge needs two non-trivial groups");
        let params = Arc::new(a.params.clone());
        let ka_material = a.key_material();
        let kb_material = b.key_material();
        let u1 = a.members[0].clone();
        let un1 = b.members[0].clone();
        let u1_inv = u1.gq().h_inv(&params.gq).clone();
        let un1_inv = un1.gq().h_inv(&params.gq).clone();

        // Node order: group A (0..n), then group B (n..n+m).
        let mut ids = a.member_ids();
        ids.extend(b.member_ids());

        let exec = Execution::new(&ids, faults, |i, net_ids| {
            let in_a = i < n;
            let state = NodeState {
                params: Arc::clone(&params),
                meter: Meter::new(),
                rng: if i == 0 {
                    ChaChaRng::seed_from_u64(seed ^ 0xa)
                } else if i == n {
                    ChaChaRng::seed_from_u64(seed ^ 0xb)
                } else {
                    // Bystanders never draw randomness.
                    ChaChaRng::seed_from_u64(seed ^ 0xdead ^ i as u64)
                },
                old_key: GroupEnvelope::new(if in_a {
                    ka_material.clone()
                } else {
                    kb_material.clone()
                }),
                derived: None,
                r_new: None,
                z_new: None,
                k_dh: None,
                k_star: None,
                own_half: None,
            };
            let phases = if i == 0 {
                controller_phases(
                    CtrlSpec {
                        member: u1.clone(),
                        group_key: a.key.clone(),
                        peer_id: un1.id,
                        peer_inv: un1_inv.clone(),
                        z_second: a.z_of(1).clone(),
                        z_edge: a.z_of(n - 1).clone(),
                    },
                    net_ids[n],
                    // A's bystanders + the peer controller.
                    (1..n).map(|j| net_ids[j]).chain([net_ids[n]]).collect(),
                    (1..n).map(|j| net_ids[j]).collect(),
                )
            } else if i == n {
                controller_phases(
                    CtrlSpec {
                        member: un1.clone(),
                        group_key: b.key.clone(),
                        peer_id: u1.id,
                        peer_inv: u1_inv.clone(),
                        z_second: b.z_of(1).clone(),
                        z_edge: b.z_of(m - 1).clone(),
                    },
                    net_ids[0],
                    (n + 1..n + m)
                        .map(|j| net_ids[j])
                        .chain([net_ids[0]])
                        .collect(),
                    (n + 1..n + m).map(|j| net_ids[j]).collect(),
                )
            } else if in_a {
                bystander_phases(u1.id)
            } else {
                bystander_phases(un1.id)
            };
            Engine::new(state, phases)
        });
        MergeRun {
            exec,
            a: a.clone(),
            b: b.clone(),
        }
    }

    /// Assembles the outcome.
    ///
    /// # Panics
    /// Panics if the run is unfinished or keys diverged.
    pub fn finish(self) -> MergeOutcome {
        assert!(self.exec.is_done(), "finish() before the run completed");
        let n = self.a.n();
        let m = self.b.n();
        let ctrl_a = self.exec.machine(0).state();
        let ctrl_b = self.exec.machine(n).state();
        assert_eq!(ctrl_a.k_dh, ctrl_b.k_dh, "controllers' DH keys must match");
        let new_key = ctrl_a.derived.clone().expect("controller derived");
        for i in 0..n + m {
            assert_eq!(
                self.exec.machine(i).state().derived.as_ref(),
                Some(&new_key),
                "merged key diverged at position {i}"
            );
        }
        let mut members = Vec::with_capacity(n + m);
        for (pos, src) in self.a.members.iter().enumerate() {
            let mut mstate = src.clone();
            if pos == 0 {
                mstate.r = ctrl_a.r_new.clone().expect("refreshed");
                mstate.z = ctrl_a.z_new.clone().expect("refreshed");
            }
            members.push(mstate);
        }
        for (pos, src) in self.b.members.iter().enumerate() {
            let mut mstate = src.clone();
            if pos == 0 {
                mstate.r = ctrl_b.r_new.clone().expect("refreshed");
                mstate.z = ctrl_b.z_new.clone().expect("refreshed");
            }
            members.push(mstate);
        }
        let reports: Vec<NodeReport> = (0..n + m)
            .map(|i| NodeReport {
                id: members[i].id,
                key: new_key.clone(),
                counts: self.exec.node_counts(i),
            })
            .collect();
        MergeOutcome {
            session: GroupSession {
                params: self.a.params.clone(),
                members,
                key: new_key,
            },
            reports,
        }
    }
}

suite_run_over_exec!(MergeRun, 0, |run| {
    let out = run.finish();
    (out.reports, out.session)
});

/// Merges `a` and `b` (which must share parameters — same PKG).
///
/// # Panics
/// Panics if the parameter sets differ, either group has fewer than 2
/// members, or any signature/envelope check fails.
pub fn merge(a: &GroupSession, b: &GroupSession, seed: u64) -> MergeOutcome {
    let mut run = MergeRun::new(a, b, seed, &Faults::none());
    loop {
        match run.pump() {
            Pump::Done => return run.finish(),
            Pump::Progressed => {}
            other => panic!("merge cannot {other:?} on a reliable medium"),
        }
    }
}

/// Merges `k ≥ 2` groups by controller-chained pairwise merges — the
/// generalization Table 4's `6(k−1)` message count implies (the paper's
/// text only spells out `k = 2`). Each fold is a full three-round Merge;
/// per-node counts accumulate across folds (keyed by identity).
///
/// # Panics
/// As [`merge`]; also panics if fewer than two sessions are given.
pub fn merge_many(sessions: &[&GroupSession], seed: u64) -> MergeOutcome {
    assert!(sessions.len() >= 2, "merge_many needs at least two groups");
    let mut acc = merge(sessions[0], sessions[1], seed);
    for (k, next) in sessions.iter().enumerate().skip(2) {
        let step = merge(&acc.session, next, seed ^ (k as u64) << 8);
        // Accumulate counts per identity across folds.
        let mut reports = step.reports;
        for prev in &acc.reports {
            if let Some(r) = reports.iter_mut().find(|r| r.id == prev.id) {
                r.counts.merge(&prev.counts);
            }
        }
        acc = MergeOutcome {
            session: step.session,
            reports,
        };
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dynamics::testutil::session;
    use crate::params::{Pkg, SecurityProfile};
    use crate::proposed::{self, RunConfig};
    use egka_energy::complexity::proposed_merge;

    /// Two groups extracted from the same PKG.
    fn two_groups(n: u32, m: u32, seed: u64) -> (GroupSession, GroupSession) {
        let mut rng = ChaChaRng::seed_from_u64(0x6d65_7267 ^ seed);
        let pkg = Pkg::setup(&mut rng, SecurityProfile::Toy);
        let keys_a = pkg.extract_group(n);
        let keys_b: Vec<_> = (n..n + m)
            .map(|i| pkg.extract(crate::ident::UserId(i)))
            .collect();
        let (_, sa) = proposed::run(pkg.params(), &keys_a, seed, RunConfig::default());
        let (_, sb) = proposed::run(pkg.params(), &keys_b, seed ^ 1, RunConfig::default());
        (sa, sb)
    }

    #[test]
    fn merge_agrees_and_preserves_invariant() {
        let (sa, sb) = two_groups(4, 3, 20);
        let out = merge(&sa, &sb, 21);
        assert_eq!(out.session.n(), 7);
        assert!(out.session.invariant_holds());
        assert_ne!(out.session.key, sa.key);
        assert_ne!(out.session.key, sb.key);
    }

    #[test]
    fn merge_counts_match_table5_closed_form() {
        let (sa, sb) = two_groups(5, 4, 22);
        let out = merge(&sa, &sb, 23);
        let roles = proposed_merge(5, 4);
        let ctrl_want = &roles[0].counts;
        let by_want = &roles[2].counts;
        for (i, rep) in out.reports.iter().enumerate() {
            let want = if i == 0 || i == 5 { ctrl_want } else { by_want };
            let tag = format!("pos {i}");
            assert_eq!(rep.counts.exps(), want.exps(), "{tag} exps");
            assert_eq!(
                rep.counts.get(CompOp::SignGen(Scheme::Gq)),
                want.get(CompOp::SignGen(Scheme::Gq)),
                "{tag} gen"
            );
            assert_eq!(rep.counts.tx_bits, want.tx_bits, "{tag} tx");
            assert_eq!(rep.counts.rx_bits, want.rx_bits, "{tag} rx");
        }
    }

    #[test]
    fn merged_group_can_run_leave() {
        // Composition: merge then leave — exercises the session bookkeeping
        // across dynamic events.
        let (sa, sb) = two_groups(4, 4, 24);
        let merged = merge(&sa, &sb, 25);
        let out = crate::dynamics::leave(&merged.session, 5, 26);
        assert_eq!(out.session.n(), 7);
        assert!(out.session.invariant_holds());
    }

    #[test]
    fn merge_many_realizes_6_k_minus_1_messages() {
        // k = 3 groups: total messages must be 6(k−1) = 12.
        let mut rng = ChaChaRng::seed_from_u64(0x6d6d);
        let pkg = Pkg::setup(&mut rng, SecurityProfile::Toy);
        let mut sessions = Vec::new();
        let mut base = 0u32;
        for (g, size) in [(0u64, 3u32), (1, 4), (2, 3)] {
            let keys: Vec<_> = (base..base + size)
                .map(|i| pkg.extract(crate::ident::UserId(i)))
                .collect();
            let (_, s) = proposed::run(pkg.params(), &keys, 30 + g, RunConfig::default());
            sessions.push(s);
            base += size;
        }
        let refs: Vec<&GroupSession> = sessions.iter().collect();
        let out = merge_many(&refs, 31);
        assert_eq!(out.session.n(), 10);
        assert!(out.session.invariant_holds());
        let total_msgs: u64 = out.reports.iter().map(|r| r.counts.msgs_tx).sum();
        assert_eq!(total_msgs, 12, "6(k−1) for k = 3");
        // All keys fresh and agreed.
        for s in &sessions {
            assert_ne!(out.session.key, s.key);
        }
    }

    #[test]
    fn a_round1_message_another_identity_signed_is_rejected() {
        let mut rng = ChaChaRng::seed_from_u64(0x6d72);
        let pkg = Pkg::setup(&mut rng, SecurityProfile::Toy);
        let gq = &pkg.params().gq;
        let (peer_key, other_key) = (pkg.extract(UserId(4)), pkg.extract(UserId(7)));
        let peer = (UserId(4), peer_key.h_inv(gq));
        let (z, edge) = (Ubig::from_u64(0x5eed), Ubig::from_u64(0xed9e));
        let shares = Some([z.clone(), edge.clone()]);
        // U7's own round-1 message, validly signed: accepted only where U7
        // is the expected peer controller.
        let by_other = signed(gq, &mut rng, (UserId(7), &other_key), &[&z, &edge]);
        let u7 = (UserId(7), other_key.h_inv(gq));
        assert_eq!(read_signed(gq, &by_other, u7), shares);
        assert_eq!(read_signed::<2>(gq, &by_other, peer), None);
        // Naming the peer under U7's key fails the signature.
        let forged = signed(gq, &mut rng, (UserId(4), &other_key), &[&z, &edge]);
        assert_eq!(read_signed::<2>(gq, &forged, peer), None);
        let honest = signed(gq, &mut rng, (UserId(4), &peer_key), &[&z, &edge]);
        assert_eq!(read_signed(gq, &honest, peer), shares);
    }

    #[test]
    #[should_panic(expected = "share the BD group")]
    fn merging_foreign_groups_panics() {
        let (sa, _) = two_groups(3, 2, 27);
        let (_, sb) = session(3, 28); // different PKG entirely
        let _ = merge(&sa, &sb, 29);
    }
}
