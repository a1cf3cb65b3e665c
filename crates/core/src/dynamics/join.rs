//! The Join protocol (paper §7, three rounds).
//!
//! ```text
//! Round 1: U_{n+1} → {U_1, U_n}:  m_{n+1} = U_{n+1} ‖ z_{n+1} ‖ σ_{n+1}
//! Round 2: U_1 → G∖{U_1}:         m'_1  = U_1 ‖ E_K(K* ‖ U_1)
//!          U_n → G'∖{U_n}:        m''_n = U_n ‖ E_K(K_DH ‖ U_n) ‖ z_n ‖ σ''_n
//! Round 3: U_n → U_{n+1}:         m'''_n = U_n ‖ E_{K_DH}(K* ‖ U_n)
//! Key:     K' = K* · K_DH = g^{r'_1 r_2 + … + r_n r_{n+1} + r_{n+1} r'_1}
//! ```
//!
//! where `K* = K · (z_2 z_n)^{−r_1} · (z_2 z_{n+1})^{r'_1}` (eq. (5)) and
//! `K_DH = g^{r_n r_{n+1}}`. Only `U_1` and `U_{n+1}` pay exponentiations
//! (2 each; the sponsor `U_n` pays 1 — Table 5 prices it even though
//! Table 4's footnote forgets it); bystanders only decrypt.
//!
//! Each of the four roles (controller, sponsor, newcomer, bystander) is a
//! sans-IO [`crate::machine::RoundMachine`] script; [`JoinRun`] is the
//! pumpable execution a scheduler interleaves, [`join`] the blocking
//! wrapper.

use std::sync::Arc;

use egka_bigint::{mod_mul, Ubig};
use egka_energy::complexity::{JOIN_M1_BITS, JOIN_MNN_BITS, JOIN_MN_BITS, JOIN_M_NEW_BITS};
use egka_energy::{CompOp, Meter, Scheme};
use egka_hash::ChaChaRng;
use egka_sig::{GqSecretKey, GqSignature};
use egka_symmetric::Envelope;
use rand::SeedableRng;

use crate::dynamics::{k_star, open_key, read_signed, seal_key, signed, GroupEnvelope};
use crate::group::{GroupSession, MemberState};
use crate::ident::UserId;
use crate::machine::{Dest, Engine, Execution, Faults, Metered, Outgoing, Phase, PhaseOut, Pump};
use crate::proposed::NodeReport;
use crate::suite::{suite_run_over_exec, SuiteRun};
use crate::wire::{kind, Reader, Writer};

/// Result of a Join run.
#[derive(Clone, Debug)]
pub struct JoinOutcome {
    /// The post-join session (`n + 1` members; `U_1`'s exponent refreshed).
    pub session: GroupSession,
    /// Per-node reports in new-ring order `[U_1, …, U_n, U_{n+1}]`.
    pub reports: Vec<NodeReport>,
}

struct NodeState {
    params: Arc<Params>,
    meter: Meter,
    rng: ChaChaRng,
    /// The old group key `K` (old members; unused by the newcomer, who
    /// has not seen it).
    old_key: GroupEnvelope,
    u1_id: UserId,
    un_id: UserId,
    // Role outputs consumed by the wrapper's session assembly.
    new_r1: Option<Ubig>,
    z1_new: Option<Ubig>,
    new_r: Option<Ubig>,
    new_z: Option<Ubig>,
    derived: Option<Ubig>,
    // Cross-phase scratch.
    k_star: Option<Ubig>,
    k_dh: Option<Ubig>,
}

use crate::params::{Credential, Params};

impl Metered for NodeState {
    fn meter(&self) -> &Meter {
        &self.meter
    }
}

/// Checks the newcomer's announcement `m_{n+1} = U_{n+1} ‖ z_{n+1} ‖
/// σ_{n+1}` against `newcomer`, its expected identity and `H(ID)⁻¹` (done
/// independently by `U_1` and `U_n`). Returns the announced share.
fn verify_announce(s: &mut NodeState, payload: &[u8], newcomer: &(UserId, Ubig)) -> Ubig {
    let z = read_signed(&s.params.gq, payload, (newcomer.0, &newcomer.1));
    s.meter.record(CompOp::SignVerify(Scheme::Gq));
    assert!(z.is_some(), "newcomer announcement signature rejected");
    let [z] = z.expect("checked above");
    z
}

/// Parses the sponsor's `m''_n = U_n ‖ E_K(K_DH‖U_n) ‖ z_n ‖ σ''_n`.
fn read_sponsor(payload: &[u8], un_id: UserId) -> (Vec<u8>, Ubig, GqSignature) {
    let mut r = Reader::new(payload);
    let id = r.get_id().expect("sponsor id");
    assert_eq!(id, un_id);
    let sealed = r.get_bytes().expect("sponsor envelope").to_vec();
    let zn = r.get_ubig().expect("sponsor z_n");
    let s = r.get_ubig().expect("sponsor sig s");
    let c = r.get_ubig().expect("sponsor sig c");
    r.expect_end().expect("no trailing bytes");
    (sealed, zn, GqSignature { s, c })
}

/// One in-flight Join: `newcomer` joins between `U_n` and `U_1`.
pub struct JoinRun {
    exec: Execution<NodeState>,
    base: GroupSession,
    newcomer: UserId,
    newcomer_cred: Arc<Credential>,
}

impl JoinRun {
    /// Prepares the run; see [`join`] for the protocol contract. The
    /// newcomer signs with the GQ key of `newcomer_cred` and joins the
    /// session carrying it.
    ///
    /// # Panics
    /// Panics if the session has fewer than 3 members or `newcomer_cred`
    /// is not a GQ credential.
    pub fn new(
        session: &GroupSession,
        newcomer: UserId,
        newcomer_cred: &Arc<Credential>,
        seed: u64,
        composable: bool,
        faults: &Faults,
    ) -> Self {
        let n = session.n();
        assert!(n >= 3, "Join distinguishes U_1, U_n and a bystander");
        let params = Arc::new(session.params.clone());
        let key_material = session.key_material();
        let u1 = session.members[0].clone();
        let un = session.members[n - 1].clone();
        let nk = newcomer_cred
            .as_gq()
            .expect("a newcomer joins with its GQ key")
            .clone();
        // U_1 and U_n check the announcement under H(U_{n+1})⁻¹: the one
        // the newcomer's key carries, unless the key is another identity's
        // and so proves nothing about U_{n+1}.
        let expected = if nk.id() == newcomer.to_bytes() {
            nk.h_inv(&params.gq).clone()
        } else {
            params.gq.h_inv(&newcomer.to_bytes())
        };
        let expected = (newcomer, expected);
        let un_inv = un.gq().h_inv(&params.gq).clone();
        let z2 = session.z_of(1).clone();
        let zn = session.z_of(n - 1).clone();
        let old_key = session.key.clone();

        // Node order: existing ring 0..n-1, then the newcomer at n.
        let mut ids = session.member_ids();
        ids.push(newcomer);

        let exec = Execution::new(&ids, faults, |i, net_ids| {
            let state = NodeState {
                params: Arc::clone(&params),
                meter: Meter::new(),
                rng: ChaChaRng::seed_from_u64(
                    seed ^ (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15),
                ),
                old_key: GroupEnvelope::new(key_material.clone()),
                u1_id: u1.id,
                un_id: un.id,
                new_r1: None,
                z1_new: None,
                new_r: None,
                new_z: None,
                derived: None,
                k_star: None,
                k_dh: None,
            };
            let phases = if i == n {
                newcomer_phases(
                    newcomer,
                    nk.clone(),
                    un_inv.clone(),
                    [net_ids[0], net_ids[n - 1]],
                )
            } else if i == 0 {
                controller_phases(
                    u1.clone(),
                    expected.clone(),
                    z2.clone(),
                    zn.clone(),
                    old_key.clone(),
                    composable,
                    net_ids[1..n].to_vec(),
                )
            } else if i == n - 1 {
                sponsor_phases(
                    un.clone(),
                    expected.clone(),
                    net_ids
                        .iter()
                        .enumerate()
                        .filter(|&(j, _)| j != n - 1)
                        .map(|(_, &e)| e)
                        .collect(),
                    net_ids[n],
                )
            } else {
                bystander_phases()
            };
            Engine::new(state, phases)
        });
        JoinRun {
            exec,
            base: session.clone(),
            newcomer,
            newcomer_cred: Arc::clone(newcomer_cred),
        }
    }

    /// Assembles the outcome.
    ///
    /// # Panics
    /// Panics if the run is unfinished or keys diverged.
    pub fn finish(self) -> JoinOutcome {
        assert!(self.exec.is_done(), "finish() before the run completed");
        let n = self.base.n();
        let u1_state = self.exec.machine(0).state();
        let new_key = u1_state.derived.clone().expect("controller derived");
        for i in 0..=n {
            assert_eq!(
                self.exec.machine(i).state().derived.as_ref(),
                Some(&new_key),
                "post-join key diverged at node {i}"
            );
        }
        let mut members = self.base.members.clone();
        members[0].r = u1_state.new_r1.clone().expect("controller refreshed");
        members[0].z = u1_state.z1_new.clone().expect("controller share");
        let nc_state = self.exec.machine(n).state();
        members.push(MemberState {
            id: self.newcomer,
            r: nc_state.new_r.clone().expect("newcomer exponent"),
            z: nc_state.new_z.clone().expect("newcomer share"),
            // The newcomer has not yet committed a (τ, t); a fresh pair is
            // produced on its first Leave/Partition round. Zero marks
            // "none".
            tau: Ubig::zero(),
            t: Ubig::zero(),
            cred: Some(self.newcomer_cred),
        });
        let reports: Vec<NodeReport> = (0..=n)
            .map(|i| NodeReport {
                id: if i == n {
                    self.newcomer
                } else {
                    self.base.members[i].id
                },
                key: new_key.clone(),
                counts: self.exec.node_counts(i),
            })
            .collect();
        JoinOutcome {
            session: GroupSession {
                params: self.base.params.clone(),
                members,
                key: new_key,
            },
            reports,
        }
    }
}

suite_run_over_exec!(JoinRun, 0, |run| {
    let out = run.finish();
    (out.reports, out.session)
});

/// `U_{n+1}`: announce, authenticate the sponsor (whose `H(U_n)⁻¹` is
/// `un_inv`), open the handoff.
fn newcomer_phases(
    id: UserId,
    gq_key: GqSecretKey,
    un_inv: Ubig,
    announce_to: [egka_medium::NodeId; 2],
) -> Vec<Phase<NodeState>> {
    vec![
        Phase::immediate(move |s: &mut NodeState, _| {
            let share = crate::bd::round1_share(&mut s.rng, &s.params.bd);
            s.meter.record(CompOp::ModExp); // z_{n+1}
            let payload = signed(&s.params.gq, &mut s.rng, (id, &gq_key), &[&share.z]);
            s.meter.record(CompOp::SignGen(Scheme::Gq));
            s.new_r = Some(share.r);
            s.new_z = Some(share.z);
            PhaseOut::Send(vec![Outgoing {
                to: Dest::Multicast(announce_to.to_vec()),
                kind: kind::JOIN_ANNOUNCE,
                payload,
                nominal_bits: JOIN_M_NEW_BITS,
            }])
        }),
        Phase::gather(kind::JOIN_SPONSOR, 1, move |s: &mut NodeState, pkts| {
            let (sealed_kdh, zn_seen, sig) = read_sponsor(&pkts[0].payload, s.un_id);
            // Verify σ''_n over exactly the bytes U_n signed: sealed ‖ z_n.
            let mut signed = Writer::new();
            signed.put_bytes(&sealed_kdh).put_ubig(&zn_seen);
            let ok = s
                .params
                .gq
                .verify_with_inverse(&un_inv, &signed.finish(), &sig);
            s.meter.record(CompOp::SignVerify(Scheme::Gq));
            assert!(ok, "sponsor signature rejected");
            let r = s.new_r.as_ref().expect("announced");
            let k_dh = s.params.bd.p.pow(&zn_seen, r);
            s.meter.record(CompOp::ModExp);
            s.k_dh = Some(k_dh);
            PhaseOut::Send(Vec::new())
        }),
        Phase::gather(kind::JOIN_HANDOFF, 1, |s: &mut NodeState, pkts| {
            let mut r = Reader::new(&pkts[0].payload);
            let id = r.get_id().expect("handoff id");
            assert_eq!(id, s.un_id);
            let sealed = r.get_bytes().expect("handoff envelope");
            let k_dh = s.k_dh.clone().expect("derived");
            let dh = Envelope::from_key_material(&k_dh.to_bytes_be());
            let (ks, _) = open_key(&dh, sealed, s.un_id).expect("valid handoff");
            s.meter.record(CompOp::SymDec);
            let key = mod_mul(&ks, &k_dh, &s.params.bd.p);
            s.derived = Some(key.clone());
            PhaseOut::Done(key)
        }),
    ]
}

/// `U_1`: authenticate the announcement, refresh `r_1`, re-key the old
/// group with `K*`, then read the sponsor's `K_DH`.
fn controller_phases(
    member: MemberState,
    newcomer: (UserId, Ubig),
    z2: Ubig,
    zn: Ubig,
    old_key: Ubig,
    composable: bool,
    old_group_minus_u1: Vec<egka_medium::NodeId>,
) -> Vec<Phase<NodeState>> {
    vec![
        Phase::gather(kind::JOIN_ANNOUNCE, 1, move |s: &mut NodeState, pkts| {
            let z_new = verify_announce(s, &pkts[0].payload, &newcomer);
            let r1p = loop {
                let r = egka_bigint::random_below(&mut s.rng, &s.params.bd.q);
                if !r.is_zero() {
                    break r;
                }
            };
            // K* = K · (z_2 · z_n)^{−r_1} · (z_2 · z_{n+1})^{r'_1}  (eq. 5)
            let ks = k_star(&s.params.bd, &old_key, &z2, &zn, &member.r, &z_new, &r1p);
            // The paper's operation count: the inversion and both powers.
            s.meter.record(CompOp::ModInv);
            s.meter.record(CompOp::ModExp);
            s.meter.record(CompOp::ModExp);
            // Composable mode: also derive and ship z'_1 (one extra exp).
            let z1p = if composable {
                let z = s.params.bd.g_pow(&r1p);
                s.meter.record(CompOp::ModExp);
                Some(z)
            } else {
                None
            };
            let sealed = seal_key(&mut s.rng, s.old_key.get(), &ks, member.id, z1p.as_ref());
            s.meter.record(CompOp::SymEnc);
            let mut w = Writer::new();
            w.put_id(member.id).put_bytes(&sealed);
            let bits = JOIN_M1_BITS
                + if composable {
                    egka_energy::wire::Z_BITS
                } else {
                    0
                };
            s.z1_new = Some(z1p.unwrap_or_else(|| {
                // Paper-exact mode: z'_1 exists mathematically but is never
                // divulged; the omniscient session bookkeeping recomputes
                // it un-metered (a real peer could not).
                s.params.bd.g_pow(&r1p)
            }));
            s.new_r1 = Some(r1p);
            s.k_star = Some(ks);
            PhaseOut::Send(vec![Outgoing {
                to: Dest::Multicast(old_group_minus_u1.clone()),
                kind: kind::JOIN_CONTROLLER,
                payload: w.finish(),
                nominal_bits: bits,
            }])
        }),
        Phase::gather(kind::JOIN_SPONSOR, 1, |s: &mut NodeState, pkts| {
            let (sealed_kdh, _zn, _sig) = read_sponsor(&pkts[0].payload, s.un_id);
            let (kdh, _) =
                open_key(s.old_key.get(), &sealed_kdh, s.un_id).expect("valid K_DH envelope");
            s.meter.record(CompOp::SymDec);
            let key = mod_mul(s.k_star.as_ref().expect("computed"), &kdh, &s.params.bd.p);
            s.derived = Some(key.clone());
            PhaseOut::Done(key)
        }),
    ]
}

/// `U_n`: authenticate the announcement, bridge `K_DH`, relay `K*` to the
/// newcomer under the DH key.
fn sponsor_phases(
    member: MemberState,
    newcomer: (UserId, Ubig),
    everyone_else: Vec<egka_medium::NodeId>,
    newcomer_ep: egka_medium::NodeId,
) -> Vec<Phase<NodeState>> {
    vec![
        Phase::gather(kind::JOIN_ANNOUNCE, 1, move |s: &mut NodeState, pkts| {
            let z_new = verify_announce(s, &pkts[0].payload, &newcomer);
            let k_dh = s.params.bd.p.pow(&z_new, &member.r);
            s.meter.record(CompOp::ModExp);
            let sealed = seal_key(&mut s.rng, s.old_key.get(), &k_dh, member.id, None);
            s.meter.record(CompOp::SymEnc);
            let mut body = Writer::new();
            body.put_bytes(&sealed).put_ubig(&member.z);
            let sig = s.params.gq.sign(&mut s.rng, member.gq(), &body.finish());
            s.meter.record(CompOp::SignGen(Scheme::Gq));
            let mut w = Writer::new();
            w.put_id(member.id)
                .put_bytes(&sealed)
                .put_ubig(&member.z)
                .put_ubig(&sig.s)
                .put_ubig(&sig.c);
            s.k_dh = Some(k_dh);
            // Everyone but U_n itself needs this: the old group decrypts
            // K_DH, the newcomer verifies σ''_n and reads z_n.
            PhaseOut::Send(vec![Outgoing {
                to: Dest::Multicast(everyone_else.clone()),
                kind: kind::JOIN_SPONSOR,
                payload: w.finish(),
                nominal_bits: JOIN_MN_BITS,
            }])
        }),
        Phase::gather(kind::JOIN_CONTROLLER, 1, move |s: &mut NodeState, pkts| {
            let mut r = Reader::new(&pkts[0].payload);
            let id = r.get_id().expect("controller id");
            assert_eq!(id, s.u1_id);
            let sealed = r.get_bytes().expect("controller envelope");
            let (ks, _z1) = open_key(s.old_key.get(), sealed, s.u1_id).expect("valid K* envelope");
            s.meter.record(CompOp::SymDec);
            let dh = Envelope::from_key_material(&s.k_dh.as_ref().expect("bridged").to_bytes_be());
            let sealed2 = seal_key(&mut s.rng, &dh, &ks, s.un_id, None);
            s.meter.record(CompOp::SymEnc);
            let mut w = Writer::new();
            w.put_id(s.un_id).put_bytes(&sealed2);
            s.k_star = Some(ks);
            PhaseOut::Send(vec![Outgoing {
                to: Dest::Unicast(newcomer_ep),
                kind: kind::JOIN_HANDOFF,
                payload: w.finish(),
                nominal_bits: JOIN_MNN_BITS,
            }])
        }),
        Phase::immediate(|s: &mut NodeState, _| {
            let key = mod_mul(
                s.k_star.as_ref().expect("opened"),
                s.k_dh.as_ref().expect("bridged"),
                &s.params.bd.p,
            );
            s.derived = Some(key.clone());
            PhaseOut::Done(key)
        }),
    ]
}

/// `U_2 … U_{n-1}`: two decryptions, then the new key.
fn bystander_phases() -> Vec<Phase<NodeState>> {
    vec![
        Phase::gather(kind::JOIN_CONTROLLER, 1, |s: &mut NodeState, pkts| {
            let mut r = Reader::new(&pkts[0].payload);
            let _ = r.get_id().expect("controller id");
            let sealed = r.get_bytes().expect("controller envelope");
            let (ks, _z1) = open_key(s.old_key.get(), sealed, s.u1_id).expect("valid K* envelope");
            s.meter.record(CompOp::SymDec);
            s.k_star = Some(ks);
            PhaseOut::Send(Vec::new())
        }),
        Phase::gather(kind::JOIN_SPONSOR, 1, |s: &mut NodeState, pkts| {
            let (sealed_kdh, _zn, _sig) = read_sponsor(&pkts[0].payload, s.un_id);
            let (kdh, _) =
                open_key(s.old_key.get(), &sealed_kdh, s.un_id).expect("valid K_DH envelope");
            s.meter.record(CompOp::SymDec);
            let key = mod_mul(s.k_star.as_ref().expect("opened"), &kdh, &s.params.bd.p);
            s.derived = Some(key.clone());
            PhaseOut::Done(key)
        }),
    ]
}

/// Runs the Join protocol: `newcomer` (with `newcomer_key`) joins
/// `session` between `U_n` and `U_1`.
///
/// With `composable = true`, `U_1` additionally computes and disseminates
/// its refreshed share `z'_1` inside `m'_1`'s envelope (one extra
/// exponentiation, +1024 nominal bits), closing the specification gap that
/// otherwise leaves the ring unusable for a *subsequent* Leave (see
/// [`crate::dynamics`] module docs).
///
/// # Panics
/// Panics if the session has fewer than 3 members, on any signature or
/// envelope failure, or if the final keys disagree.
pub fn join(
    session: &GroupSession,
    newcomer: UserId,
    newcomer_key: &GqSecretKey,
    seed: u64,
    composable: bool,
) -> JoinOutcome {
    let mut run = JoinRun::new(
        session,
        newcomer,
        &Arc::new(Credential::Gq(newcomer_key.clone())),
        seed,
        composable,
        &Faults::none(),
    );
    loop {
        match run.pump() {
            Pump::Done => return run.finish(),
            Pump::Progressed => {}
            other => panic!("join cannot {other:?} on a reliable medium"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dynamics::testutil::{new_member, session};
    use egka_energy::complexity::proposed_join;

    #[test]
    fn k_star_equals_the_inversion_form() {
        use egka_bigint::{mod_inverse, mod_pow};
        use rand::SeedableRng;
        for seed in 1..=4u64 {
            let mut rng = egka_hash::ChaChaRng::seed_from_u64(0x4b53 ^ seed);
            // The Toy profile's sizes.
            let g = egka_bigint::gen_schnorr_group(&mut rng, 256, 96);
            for _ in 0..4 {
                let [u1, z2, zn, un1, key] = [(); 5].map(|_| crate::bd::round1_share(&mut rng, &g));
                let r1p = crate::bd::round1_share(&mut rng, &g).r;
                let p = &g.p;
                let a_inv = mod_inverse(&mod_mul(&z2.z, &zn.z, p), p).expect("a unit");
                let want = mod_mul(
                    &mod_mul(&key.z, &mod_pow(&a_inv, &u1.r, p), p),
                    &mod_pow(&mod_mul(&z2.z, &un1.z, p), &r1p, p),
                    p,
                );
                let got = k_star(&g, &key.z, &z2.z, &zn.z, &u1.r, &un1.z, &r1p);
                assert_eq!(got, want, "seed {seed}");
            }
        }
    }

    #[test]
    fn join_agrees_and_preserves_invariant() {
        let (pkg, s0) = session(4, 1);
        let nk = new_member(&pkg, 4);
        let out = join(&s0, UserId(4), &nk, 99, true);
        assert_eq!(out.session.n(), 5);
        assert!(out.session.invariant_holds(), "ring invariant after join");
        assert_ne!(out.session.key, s0.key, "key must change");
    }

    #[test]
    fn paper_mode_counts_match_table5_closed_form() {
        let (pkg, s0) = session(6, 2);
        let nk = new_member(&pkg, 6);
        let out = join(&s0, UserId(6), &nk, 100, false);
        let roles = proposed_join(6);
        // Role order in closed form: U1, Un, Un+1, Others.
        let u1 = &out.reports[0].counts;
        let un = &out.reports[5].counts;
        let nc = &out.reports[6].counts;
        let by = &out.reports[2].counts;
        for (got, want, name) in [
            (u1, &roles[0].counts, "U1"),
            (un, &roles[1].counts, "Un"),
            (nc, &roles[2].counts, "Un+1"),
            (by, &roles[3].counts, "Others"),
        ] {
            assert_eq!(got.exps(), want.exps(), "{name} exps");
            assert_eq!(
                got.get(CompOp::SignGen(Scheme::Gq)),
                want.get(CompOp::SignGen(Scheme::Gq)),
                "{name} sign gen"
            );
            assert_eq!(
                got.get(CompOp::SignVerify(Scheme::Gq)),
                want.get(CompOp::SignVerify(Scheme::Gq)),
                "{name} sign ver"
            );
            assert_eq!(got.tx_bits, want.tx_bits, "{name} tx bits");
            assert_eq!(got.rx_bits, want.rx_bits, "{name} rx bits");
            assert_eq!(got.msgs_tx, want.msgs_tx, "{name} msgs tx");
            assert_eq!(got.msgs_rx, want.msgs_rx, "{name} msgs rx");
        }
    }

    #[test]
    fn composable_mode_costs_one_more_exp_at_u1() {
        let (pkg, s0) = session(4, 3);
        let nk = new_member(&pkg, 4);
        let paper = join(&s0, UserId(4), &nk, 7, false);
        let comp = join(&s0, UserId(4), &nk, 7, true);
        assert_eq!(
            comp.reports[0].counts.exps(),
            paper.reports[0].counts.exps() + 1
        );
        assert_eq!(
            comp.reports[0].counts.tx_bits,
            paper.reports[0].counts.tx_bits + egka_energy::wire::Z_BITS
        );
    }

    #[test]
    fn paper_mode_session_still_bookkeeps_ring() {
        // Even without disseminating z'_1 the omniscient session state must
        // stay consistent (it models "what the math is", not "who knows it").
        let (pkg, s0) = session(4, 4);
        let nk = new_member(&pkg, 4);
        let out = join(&s0, UserId(4), &nk, 8, false);
        assert!(out.session.invariant_holds());
    }

    #[test]
    fn an_announcement_another_identity_signed_is_rejected() {
        let (pkg, _) = session(3, 6);
        let gq = &pkg.params().gq;
        let mut rng = ChaChaRng::seed_from_u64(0x4a6e);
        let (newcomer, other) = (new_member(&pkg, 9), new_member(&pkg, 8));
        let (u9, u8) = (
            (UserId(9), newcomer.h_inv(gq)),
            (UserId(8), other.h_inv(gq)),
        );
        let z = Ubig::from_u64(0xfeed);
        // U8's own announcement, validly signed: accepted only where U8 is
        // the expected newcomer.
        let by_other = signed(gq, &mut rng, (UserId(8), &other), &[&z]);
        assert_eq!(read_signed(gq, &by_other, u8), Some([z.clone()]));
        assert_eq!(read_signed::<1>(gq, &by_other, u9), None);
        // Naming U9 under U8's key fails the signature.
        let forged = signed(gq, &mut rng, (UserId(9), &other), &[&z]);
        assert_eq!(read_signed::<1>(gq, &forged, u9), None);
        let honest = signed(gq, &mut rng, (UserId(9), &newcomer), &[&z]);
        assert_eq!(read_signed(gq, &honest, u9), Some([z]));
    }

    #[test]
    fn forged_announcement_is_rejected() {
        let (pkg, s0) = session(4, 5);
        // Key extracted for a DIFFERENT identity: the announcement
        // signature cannot verify as U9.
        let wrong_key = new_member(&pkg, 8);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            join(&s0, UserId(9), &wrong_key, 9, true)
        }));
        assert!(
            result.is_err(),
            "announcement under mismatched key must fail"
        );
    }
}
