//! The Saeednia–Safavi-Naini (SSN) ID-based GKA baseline (Table 1, last
//! column).
//!
//! The ACISP '98 paper is engineered here to the exact complexity profile
//! the reproduced paper reports for it — `2n + 4` modular exponentiations
//! per user, 2 messages transmitted, `2(n − 1)` received, no signature
//! generations or verifications (authentication is *implicit*, per-sender,
//! ID-based) — with 1024-bit ID-based values ("1024-bit SSN scheme"). See
//! `DESIGN.md` (substitution table) for why this preserves every behaviour
//! the evaluation depends on.
//!
//! Structure (a BD ring with per-sender GQ-style implicit authentication):
//!
//! ```text
//! Round 1:  m_i  = U_i ‖ z_i ‖ t_i        z_i = g^{r_i}, t_i = τ_i^e   [2 exp]
//! Round 2:  m'_i = U_i ‖ X_i ‖ s_i        c_i = H(U_i, z_i, X_i, t_i, Z)
//!                                         s_i = τ_i·S_{U_i}^{c_i}      [2 exp]
//! Check:    ∀j:  t_j == s_j^e · H(U_j)^{−c_j}                      [2 exp each]
//! Key:      K' = K_BD^{H_q(Z)}   (key-confirmation exponent)        [1 + 1 exp]
//! ```
//!
//! Unlike the proposed protocol's single batch check, each user verifies
//! every other member **individually** — the `2(n − 1)` verification
//! exponentiations are exactly what makes SSN's column grow with `n`
//! (and what the proposed protocol's batch verification eliminates).
//!
//! Per-node logic is a sans-IO [`crate::machine::RoundMachine`] sharing
//! the proposed protocol's two-round script shape; [`run`] is the blocking
//! driver over one [`SsnRun`].

use std::sync::Arc;

use egka_bigint::Ubig;
use egka_energy::complexity::InitialProtocol;
use egka_energy::{CompOp, Meter};
use egka_hash::{hash_to_below, ChaChaRng};
use egka_sig::GqSecretKey;
use rand::SeedableRng;

use crate::bd;
use crate::ident::{ring_position, UserId};
use crate::machine::{
    two_round_script, Dest, Engine, Execution, Faults, Metered, Outgoing, PhaseOut, Pump,
};
use crate::params::{Credential, Params};
use crate::proposed::{gq_creds, gq_keys, key_ring, NodeReport, RunReport};
use crate::suite::{suite_run_over_exec, SuiteRun};
use crate::wire::{kind, Reader, Writer};

struct NodeState {
    idx: usize,
    id: UserId,
    /// Member identities in ring order (positions are ring indices; wire
    /// messages carry identities, which are looked up here).
    ring: Arc<Vec<UserId>>,
    /// Each ring member's `H(U_j)⁻¹`, ring order (one list per run).
    h_invs: Arc<[Ubig]>,
    key: GqSecretKey,
    params: Arc<Params>,
    meter: Meter,
    rng: ChaChaRng,
    share: Option<bd::Share>,
    tau: Ubig,
    zs: Vec<Ubig>,
    ts: Vec<Ubig>,
    xs: Vec<Ubig>,
    ss: Vec<Ubig>,
    derived: Option<Ubig>,
}

impl Metered for NodeState {
    fn meter(&self) -> &Meter {
        &self.meter
    }
}

/// The per-sender implicit-authentication challenge
/// `c_j = H(U_j ‖ z_j ‖ X_j ‖ t_j ‖ Z)`, reduced into `Z_e`' challenge
/// space (160 bits).
fn challenge(params: &Params, id: UserId, z: &Ubig, x: &Ubig, t: &Ubig, z_prod: &Ubig) -> Ubig {
    let mut w = Writer::new();
    w.put_id(id)
        .put_ubig(z)
        .put_ubig(x)
        .put_ubig(t)
        .put_ubig(z_prod);
    egka_hash::challenge_hash(&[&w.finish()]).rem_ref(&params.gq.e)
}

fn node_machine(state: NodeState, n: usize) -> Engine<NodeState> {
    let proto = InitialProtocol::Ssn;
    let phases = two_round_script(
        state.idx,
        kind::ROUND1,
        kind::ROUND2,
        n,
        // Round 1: fresh share + commitment, both priced individually.
        move |s: &mut NodeState| {
            let share = bd::round1_share(&mut s.rng, &s.params.bd);
            s.meter.record(CompOp::ModExp); // z_i
            let (tau, t) = s.params.gq.commit(&mut s.rng);
            s.meter.record(CompOp::ModExp); // t_i = τ^e (priced individually here)
            let mut w = Writer::new();
            w.put_id(s.id).put_ubig(&share.z).put_ubig(&t);
            s.zs[s.idx] = share.z.clone();
            s.ts[s.idx] = t;
            s.tau = tau;
            s.share = Some(share);
            Outgoing {
                to: Dest::Broadcast,
                kind: kind::ROUND1,
                payload: w.finish(),
                nominal_bits: proto.round1_bits(),
            }
        },
        // Absorb round 1, derive (X_i, s_i) under the per-sender challenge.
        move |s: &mut NodeState, pkts| {
            for pkt in pkts {
                let mut r = Reader::new(&pkt.payload);
                let id = r.get_id().expect("round-1 id");
                let z = r.get_ubig().expect("round-1 z");
                let t = r.get_ubig().expect("round-1 t");
                r.expect_end().expect("no trailing bytes");
                let j = ring_position(&s.ring, id, "round-1");
                s.zs[j] = z;
                s.ts[j] = t;
            }
            let share = s.share.as_ref().expect("round 1 done");
            let x = bd::round2_x(
                &s.params.bd,
                &share.r,
                &s.zs[(s.idx + n - 1) % n],
                &s.zs[(s.idx + 1) % n],
            );
            s.meter.record(CompOp::ModExp); // X_i
            s.meter.record(CompOp::ModInv);
            let z_prod = s.params.bd.p.product(&s.zs);
            let c = challenge(&s.params, s.id, &share.z, &x, &s.ts[s.idx], &z_prod);
            let resp = s.params.gq.respond(&s.key, &s.tau, &c);
            s.meter.record(CompOp::ModExp); // S^{c_i}
            s.xs[s.idx] = x;
            s.ss[s.idx] = resp;
        },
        move |s: &mut NodeState| {
            let mut w = Writer::new();
            w.put_id(s.id).put_ubig(&s.xs[s.idx]).put_ubig(&s.ss[s.idx]);
            Outgoing {
                to: Dest::Broadcast,
                kind: kind::ROUND2,
                payload: w.finish(),
                nominal_bits: proto.round2_bits(),
            }
        },
        move |s: &mut NodeState, pkts| {
            for pkt in pkts {
                let mut r = Reader::new(&pkt.payload);
                let id = r.get_id().expect("round-2 id");
                let x = r.get_ubig().expect("round-2 X");
                let resp = r.get_ubig().expect("round-2 s");
                r.expect_end().expect("no trailing bytes");
                let j = ring_position(&s.ring, id, "round-2");
                s.xs[j] = x;
                s.ss[j] = resp;
            }
        },
        // Per-sender implicit authentication + key (with confirmation
        // exponent).
        move |s: &mut NodeState| {
            let z_prod = s.params.bd.p.product(&s.zs);
            for j in 0..n {
                if j == s.idx {
                    continue;
                }
                let c = challenge(&s.params, s.ring[j], &s.zs[j], &s.xs[j], &s.ts[j], &z_prod);
                // t_j == s_j^e · H(U_j)^{−c_j}: priced as two modular
                // exponentiations and one inversion.
                let t_rec = s.params.gq.recover_commitment(&s.h_invs[j], &s.ss[j], &c);
                s.meter.record(CompOp::ModExp);
                s.meter.record(CompOp::ModExp);
                s.meter.record(CompOp::ModInv);
                assert_eq!(t_rec, s.ts[j], "implicit authentication of U{j} failed");
            }
            let share = s.share.as_ref().expect("round 1 done");
            let ring: Vec<Ubig> = (0..n).map(|k| s.xs[(s.idx + k) % n].clone()).collect();
            let k_bd = bd::compute_key(&s.params.bd, &share.r, &s.zs[(s.idx + n - 1) % n], &ring);
            s.meter.record(CompOp::ModExp); // BD key
                                            // Key confirmation exponent: K' = K_BD^{H_q(Z)}.
            let kc = hash_to_below(
                b"egka.ssn.confirm.v1",
                &z_prod.to_bytes_be(),
                &s.params.bd.q,
            );
            let key = s.params.bd.p.pow(&k_bd, &kc);
            s.meter.record(CompOp::ModExp);
            s.derived = Some(key.clone());
            PhaseOut::Done(key)
        },
    );
    Engine::new(state, phases)
}

/// One in-flight SSN run (pumpable; see [`crate::proposed::GkaRun`]).
pub struct SsnRun {
    exec: Execution<NodeState>,
    creds: Vec<Arc<Credential>>,
}

impl SsnRun {
    /// Prepares a run for the `creds.len()` holders of the GQ credentials
    /// `creds` (ring order; arbitrary ids are fine: wire messages carry
    /// identities, looked up by ring position).
    ///
    /// # Panics
    /// Panics if fewer than two credentials are supplied or one is not a
    /// GQ credential.
    pub fn new(params: &Params, creds: &[Arc<Credential>], seed: u64, faults: &Faults) -> Self {
        let n = creds.len();
        assert!(n >= 2, "a group needs at least two members");
        let keys = gq_keys(creds);
        let ids = key_ring(&keys);
        let h_invs: Arc<[Ubig]> = keys.iter().map(|k| k.h_inv(&params.gq).clone()).collect();
        let ring = Arc::new(ids.clone());
        let shared = Arc::new(params.clone());
        let exec = Execution::new(&ids, faults, |i, _| {
            node_machine(
                NodeState {
                    idx: i,
                    id: ids[i],
                    ring: Arc::clone(&ring),
                    h_invs: Arc::clone(&h_invs),
                    key: keys[i].clone(),
                    params: Arc::clone(&shared),
                    meter: Meter::new(),
                    rng: ChaChaRng::seed_from_u64(
                        seed ^ (i as u64).wrapping_mul(0xd6e8_feb8_6659_fd93),
                    ),
                    share: None,
                    tau: Ubig::zero(),
                    zs: vec![Ubig::zero(); n],
                    ts: vec![Ubig::zero(); n],
                    xs: vec![Ubig::zero(); n],
                    ss: vec![Ubig::zero(); n],
                    derived: None,
                },
                n,
            )
        });
        SsnRun {
            exec,
            creds: creds.to_vec(),
        }
    }

    /// Like [`SsnRun::finish`], but also assembles a
    /// [`crate::GroupSession`] over the run's parameters so it can seed service
    /// state. SSN has no §7 dynamics — a membership change re-runs the
    /// whole protocol — but each member's BD share, GQ commitment and GQ
    /// credential are genuinely held, so they are carried faithfully.
    ///
    /// # Panics
    /// Panics if the run has not finished or keys diverged.
    pub fn finish_session(self) -> (RunReport, crate::GroupSession) {
        assert!(self.exec.is_done(), "finish() before the run completed");
        let params = (*self.exec.machine(0).state().params).clone();
        let members: Vec<crate::MemberState> = (0..self.exec.n())
            .map(|i| {
                let state = self.exec.machine(i).state();
                let share = state.share.as_ref().expect("round 1 done");
                crate::MemberState {
                    id: state.id,
                    r: share.r.clone(),
                    z: share.z.clone(),
                    tau: state.tau.clone(),
                    t: state.ts[state.idx].clone(),
                    cred: Some(Arc::clone(&self.creds[i])),
                }
            })
            .collect();
        let report = self.finish();
        let session = crate::GroupSession {
            params,
            key: report.nodes[0].key.clone(),
            members,
        };
        (report, session)
    }

    /// Assembles the per-node reports.
    ///
    /// # Panics
    /// Panics if the run has not finished or keys diverged.
    pub fn finish(self) -> RunReport {
        assert!(self.exec.is_done(), "finish() before the run completed");
        let nodes: Vec<NodeReport> = (0..self.exec.n())
            .map(|i| {
                let state = self.exec.machine(i).state();
                NodeReport {
                    id: state.id,
                    key: state.derived.clone().expect("derived"),
                    counts: self.exec.node_counts(i),
                }
            })
            .collect();
        let report = RunReport { nodes, attempts: 1 };
        assert!(report.keys_agree(), "SSN keys must agree");
        report
    }
}

suite_run_over_exec!(SsnRun, 1, |run| {
    let (report, session) = run.finish_session();
    (report.nodes, session)
});

/// Runs the SSN protocol for `keys.len()` users.
///
/// # Panics
/// Panics on any failed implicit-authentication check (honest runs only).
pub fn run(params: &Params, keys: &[GqSecretKey], seed: u64) -> RunReport {
    let mut ssn = SsnRun::new(params, &gq_creds(keys), seed, &Faults::none());
    loop {
        match ssn.pump() {
            Pump::Done => return ssn.finish(),
            Pump::Progressed => {}
            other => panic!("SSN run on a reliable medium cannot {other:?}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::{Pkg, SecurityProfile};

    fn setup(n: u32) -> (Params, Vec<GqSecretKey>) {
        let mut rng = ChaChaRng::seed_from_u64(0x53534e);
        let pkg = Pkg::setup(&mut rng, SecurityProfile::Toy);
        (pkg.params().clone(), pkg.extract_group(n))
    }

    #[test]
    fn group_agrees() {
        let (params, keys) = setup(5);
        let report = run(&params, &keys, 1);
        assert!(report.keys_agree());
    }

    #[test]
    fn exponent_count_is_2n_plus_4() {
        for n in [2u32, 3, 6, 9] {
            let (params, keys) = setup(n);
            let report = run(&params, &keys, 2);
            let expect = InitialProtocol::Ssn.per_user_counts(n as u64);
            for node in &report.nodes {
                assert_eq!(node.counts.exps(), expect.exps(), "n = {n}, {}", node.id);
                assert_eq!(node.counts.msgs_tx, 2);
                assert_eq!(node.counts.msgs_rx, 2 * (n as u64 - 1));
                assert_eq!(node.counts.tx_bits, expect.tx_bits);
                assert_eq!(node.counts.rx_bits, expect.rx_bits);
            }
        }
    }

    #[test]
    fn no_signature_ops_are_recorded() {
        let (params, keys) = setup(4);
        let report = run(&params, &keys, 3);
        use egka_energy::Scheme;
        for node in &report.nodes {
            for s in Scheme::ALL {
                assert_eq!(node.counts.get(CompOp::SignGen(s)), 0);
                assert_eq!(node.counts.get(CompOp::SignVerify(s)), 0);
            }
        }
    }

    #[test]
    fn keys_differ_across_runs() {
        let (params, keys) = setup(3);
        assert_ne!(run(&params, &keys, 10).key(), run(&params, &keys, 11).key());
    }
}
