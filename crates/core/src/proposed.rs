//! The paper's proposed ID-based authenticated GKA protocol (§4).
//!
//! Two broadcast rounds over the ring `U_1 … U_n`:
//!
//! ```text
//! Round 1:  m_i  = U_i ‖ z_i ‖ t_i          z_i = g^{r_i},  t_i = τ_i^e
//! Round 2:  m'_i = U_i ‖ X_i ‖ s_i          X_i = (z_{i+1}/z_{i-1})^{r_i}
//!                                           c   = H(T, Z),  s_i = τ_i·S_{U_i}^c
//! Check:    c == H((∏ s_i)^e · (∏ H(U_i))^{−c}, Z)          (eq. (2))
//!           ∏ X_i ≡ 1 (mod p)                               (Lemma 1)
//! Key:      K = g^{r_1 r_2 + … + r_n r_1}                   (eq. (3))
//! ```
//!
//! `U_1` acts as the trusted controller and broadcasts its Round-2 message
//! last. If either check fails, *all members retransmit* (fresh randomness,
//! bounded retries here: a run still failing on its last attempt ends in
//! [`ProtocolFault::RetryExhausted`]); [`Fault`] injects the two
//! corruptions the checks are designed to catch.
//!
//! Every node is a sans-IO [`crate::machine::RoundMachine`]: the protocol
//! logic never touches an endpoint, it consumes packets and emits outgoing
//! messages from `poll`. [`run`] is the blocking convenience driver (one
//! [`GkaRun`] pumped to completion with per-round thread fan-out); a
//! scheduler that interleaves many groups pumps [`GkaRun`]s directly.
//! Operation counts land in per-node [`Meter`]s with exactly the
//! granularity the paper's cost model prices (Table 1 column 1: 3
//! exponentiations, 1 GQ signature generation, 1 batch verification).

use std::sync::Arc;

use egka_bigint::{mod_mul, Ubig};
use egka_energy::complexity::InitialProtocol;
use egka_energy::{CompOp, Meter, OpCounts, Scheme};
use egka_hash::ChaChaRng;
use egka_sig::GqSecretKey;
use rand::SeedableRng;

use crate::bd;
use crate::group::{GroupSession, MemberState};
use crate::ident::{ring_position, UserId};
use crate::machine::{
    two_round_script, Dest, Engine, Execution, Faults, Metered, Outgoing, PhaseOut, ProtocolFault,
};
use crate::params::{Credential, Params};
use crate::suite::suite_run_over_exec;
use crate::wire::{kind, Reader, Writer};

/// Fault injection for the retransmission path.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fault {
    /// Node `node` broadcasts a corrupted `X` on attempt `on_attempt`
    /// (caught by Lemma 1).
    CorruptX {
        /// Ring index of the faulty node.
        node: usize,
        /// Zero-based attempt on which the fault fires.
        on_attempt: u32,
    },
    /// Node `node` broadcasts a corrupted response `s` on attempt
    /// `on_attempt` (caught by the batch verification, eq. (2)).
    CorruptS {
        /// Ring index of the faulty node.
        node: usize,
        /// Zero-based attempt on which the fault fires.
        on_attempt: u32,
    },
}

/// Run configuration.
#[derive(Clone, Copy, Debug)]
pub struct RunConfig {
    /// Upper bound on protocol attempts (paper: unbounded "retransmit").
    pub max_attempts: u32,
    /// Optional injected fault.
    pub fault: Option<Fault>,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            max_attempts: 3,
            fault: None,
        }
    }
}

/// Per-node outcome of a protocol run.
#[derive(Clone, Debug)]
pub struct NodeReport {
    /// The node's identity.
    pub id: UserId,
    /// The derived group key.
    pub key: Ubig,
    /// Instrumented operation and traffic counts.
    pub counts: OpCounts,
}

/// Outcome of a full protocol run.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// Per-node reports, in ring order.
    pub nodes: Vec<NodeReport>,
    /// Number of attempts used (1 = no retransmission).
    pub attempts: u32,
}

impl RunReport {
    /// True iff every node derived the same key.
    pub fn keys_agree(&self) -> bool {
        self.nodes.windows(2).all(|w| w[0].key == w[1].key)
    }

    /// The agreed key.
    ///
    /// # Panics
    /// Panics if the keys do not agree.
    pub fn key(&self) -> &Ubig {
        assert!(self.keys_agree(), "group keys diverged");
        &self.nodes[0].key
    }
}

/// One node's protocol state — everything the lock-step driver's `Node`
/// held except the endpoint, which sans-IO machines never see.
struct NodeState {
    idx: usize,
    id: UserId,
    ring: Vec<UserId>,
    /// Each ring member's `H(U_j)⁻¹`, ring order (one list per run).
    h_invs: Arc<[Ubig]>,
    key: GqSecretKey,
    params: Arc<Params>,
    meter: Meter,
    rng: ChaChaRng,
    fault: Option<Fault>,
    max_attempts: u32,
    attempts: u32,
    // per-attempt state
    share: Option<bd::Share>,
    tau: Ubig,
    t: Ubig,
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

/// Builds node `idx`'s machine. Phases (the shared two-round shape):
/// announce `m_i`, absorb the other `n−1` and derive Round-2 values,
/// exchange `m'_i` controller-last, then verify-and-derive — restarting
/// the whole script on a failed check ("all members retransmit") until the
/// attempt budget runs out.
fn node_machine(state: NodeState) -> Engine<NodeState> {
    let n = state.ring.len();
    let phases = two_round_script(
        state.idx,
        kind::ROUND1,
        kind::ROUND2,
        n,
        // Round 1: fresh (r_i, τ_i), broadcast m_i = U_i ‖ z_i ‖ t_i.
        move |s: &mut NodeState| {
            s.attempts += 1;
            let share = bd::round1_share(&mut s.rng, &s.params.bd);
            s.meter.record(CompOp::ModExp); // z_i = g^{r_i}
            let (tau, t) = s.params.gq.commit(&mut s.rng);
            // t_i = τ^e is half of the GQ signature generation; the other
            // half (s_i = τ·S^c) happens in Round 2. Charged as one
            // SignGen there.
            let mut w = Writer::new();
            w.put_id(s.id).put_ubig(&share.z).put_ubig(&t);
            s.zs[s.idx] = share.z.clone();
            s.ts[s.idx] = t.clone();
            s.share = Some(share);
            s.tau = tau;
            s.t = t;
            Outgoing {
                to: Dest::Broadcast,
                kind: kind::ROUND1,
                payload: w.finish(),
                nominal_bits: InitialProtocol::ProposedGqBatch.round1_bits(),
            }
        },
        // Absorb the other announcements, then compute X_i, the shared
        // challenge c = H(T, Z) and the response s_i.
        move |s: &mut NodeState, pkts| {
            for pkt in pkts {
                let mut r = Reader::new(&pkt.payload);
                let id = r.get_id().expect("well-formed round-1 id");
                let z = r.get_ubig().expect("well-formed z");
                let t = r.get_ubig().expect("well-formed t");
                r.expect_end().expect("no trailing bytes");
                let j = ring_position(&s.ring, id, "round-1");
                s.zs[j] = z;
                s.ts[j] = t;
            }
            let share = s.share.as_ref().expect("round 1 done");
            let mut x = bd::round2_x(
                &s.params.bd,
                &share.r,
                &s.zs[(s.idx + n - 1) % n],
                &s.zs[(s.idx + 1) % n],
            );
            s.meter.record(CompOp::ModExp); // X_i
            s.meter.record(CompOp::ModInv); // 1/z_{i-1} (negligible)
            if let Some(Fault::CorruptX { on_attempt, .. }) = s.fault {
                if on_attempt == s.attempts - 1 {
                    x = mod_mul(&x, &s.params.bd.g, &s.params.bd.p);
                }
            }
            // Z = ∏ z_i, T = ∏ t_i, c = H(T, Z).
            let z_prod =
                s.zs.iter()
                    .fold(Ubig::one(), |acc, z| mod_mul(&acc, z, &s.params.bd.p));
            let t_agg = s.params.gq.aggregate_commitments(&s.ts);
            s.bind = z_prod.to_bytes_be();
            s.challenge = s.params.gq.shared_challenge(&t_agg, &s.bind);
            s.meter.record(CompOp::Hash);
            let mut resp = s.params.gq.respond(&s.key, &s.tau, &s.challenge);
            // Commit (Round 1) + respond: one GQ signature generation.
            s.meter.record(CompOp::SignGen(Scheme::Gq));
            if let Some(Fault::CorruptS { on_attempt, .. }) = s.fault {
                if on_attempt == s.attempts - 1 {
                    resp = mod_mul(&resp, &Ubig::from_u64(3), &s.params.gq.n);
                }
            }
            s.xs[s.idx] = x;
            s.ss[s.idx] = resp;
        },
        // Round-2 broadcast m'_i = U_i ‖ X_i ‖ s_i.
        move |s: &mut NodeState| {
            let mut w = Writer::new();
            w.put_id(s.id).put_ubig(&s.xs[s.idx]).put_ubig(&s.ss[s.idx]);
            Outgoing {
                to: Dest::Broadcast,
                kind: kind::ROUND2,
                payload: w.finish(),
                nominal_bits: InitialProtocol::ProposedGqBatch.round2_bits(),
            }
        },
        // Absorb the other n−1 Round-2 messages.
        move |s: &mut NodeState, pkts| {
            for pkt in pkts {
                let mut r = Reader::new(&pkt.payload);
                let id = r.get_id().expect("well-formed round-2 id");
                let x = r.get_ubig().expect("well-formed X");
                let resp = r.get_ubig().expect("well-formed s");
                r.expect_end().expect("no trailing bytes");
                let j = ring_position(&s.ring, id, "round-2");
                s.xs[j] = x;
                s.ss[j] = resp;
            }
        },
        // Batch verification (eq. (2)) + Lemma 1 + key derivation; every
        // node evaluates the same deterministic checks, so failure is
        // simultaneous and the retransmission restart stays in lock step.
        move |s: &mut NodeState| {
            let batch_ok = s
                .params
                .gq
                .aggregate_verify(&s.h_invs, &s.ss, &s.challenge, &s.bind);
            // One priced batch verification, however it came out.
            s.meter.record(CompOp::SignVerify(Scheme::Gq));
            if !batch_ok || !bd::lemma1_holds(&s.params.bd, &s.xs) {
                return if s.attempts >= s.max_attempts {
                    PhaseOut::Fail(ProtocolFault::RetryExhausted {
                        attempts: s.attempts,
                    })
                } else {
                    PhaseOut::Restart
                };
            }
            let share = s.share.as_ref().expect("round 1 done");
            let ring: Vec<Ubig> = (0..n).map(|j| s.xs[(s.idx + j) % n].clone()).collect();
            let key = bd::compute_key(&s.params.bd, &share.r, &s.zs[(s.idx + n - 1) % n], &ring);
            s.meter.record(CompOp::ModExp); // the key exponentiation
            s.derived = Some(key.clone());
            PhaseOut::Done(key)
        },
    );
    Engine::new(state, phases)
}

/// One in-flight run of the proposed protocol over all `n` members'
/// machines — pump it alongside other groups' runs, or let [`run`] drive
/// it to completion.
pub struct GkaRun {
    exec: Execution<NodeState>,
    params: Params,
    ring: Vec<UserId>,
    creds: Vec<Arc<Credential>>,
}

impl GkaRun {
    /// Prepares a run for the `n = creds.len()` holders of the GQ
    /// credentials `creds` (ring order) with optional fault injection on
    /// the private medium. The session carries the same credentials.
    ///
    /// # Panics
    /// Panics if fewer than two credentials are supplied, if one is not a
    /// GQ credential, or if `config.max_attempts` is zero.
    pub fn new(
        params: &Params,
        creds: &[Arc<Credential>],
        seed: u64,
        config: RunConfig,
        faults: &Faults,
    ) -> Self {
        let n = creds.len();
        assert!(n >= 2, "a group needs at least two members");
        assert!(config.max_attempts >= 1, "a run needs at least one attempt");
        let keys = gq_keys(creds);
        let ring = key_ring(&keys);
        let h_invs: Arc<[Ubig]> = keys.iter().map(|k| k.h_inv(&params.gq).clone()).collect();
        let shared = Arc::new(params.clone());
        let exec = Execution::new(&ring, faults, |i, _net_ids| {
            node_machine(NodeState {
                idx: i,
                id: ring[i],
                ring: ring.clone(),
                h_invs: Arc::clone(&h_invs),
                key: keys[i].clone(),
                params: Arc::clone(&shared),
                meter: Meter::new(),
                rng: ChaChaRng::seed_from_u64(
                    seed ^ (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15),
                ),
                fault: config.fault.filter(|f| match *f {
                    Fault::CorruptX { node, .. } | Fault::CorruptS { node, .. } => node == i,
                }),
                max_attempts: config.max_attempts,
                attempts: 0,
                share: None,
                tau: Ubig::zero(),
                t: Ubig::zero(),
                zs: vec![Ubig::zero(); n],
                ts: vec![Ubig::zero(); n],
                xs: vec![Ubig::zero(); n],
                ss: vec![Ubig::zero(); n],
                challenge: Ubig::zero(),
                bind: Vec::new(),
                derived: None,
            })
        });
        GkaRun {
            exec,
            params: params.clone(),
            ring,
            creds: creds.to_vec(),
        }
    }

    /// Assembles the reports and the post-agreement session.
    ///
    /// # Panics
    /// Panics if the run has not finished, or if (impossibly) keys
    /// diverged.
    pub fn finish(self) -> (RunReport, GroupSession) {
        assert!(self.exec.is_done(), "finish() before the run completed");
        let n = self.ring.len();
        let reports: Vec<NodeReport> = (0..n)
            .map(|i| {
                let state = self.exec.machine(i).state();
                NodeReport {
                    id: state.id,
                    key: state.derived.clone().expect("derived after convergence"),
                    counts: self.exec.node_counts(i),
                }
            })
            .collect();
        let session = GroupSession {
            params: self.params.clone(),
            members: (0..n)
                .map(|i| {
                    let state = self.exec.machine(i).state();
                    let share = state.share.as_ref().expect("share set");
                    MemberState {
                        id: state.id,
                        r: share.r.clone(),
                        z: share.z.clone(),
                        tau: state.tau.clone(),
                        t: state.t.clone(),
                        cred: Some(Arc::clone(&self.creds[i])),
                    }
                })
                .collect(),
            key: reports[0].key.clone(),
        };
        let report = RunReport {
            nodes: reports,
            attempts: self.exec.machine(0).state().attempts,
        };
        assert!(report.keys_agree(), "post-verification keys must agree");
        (report, session)
    }
}

suite_run_over_exec!(GkaRun, 1, |run| {
    let (report, session) = run.finish();
    (report.nodes, session)
});

/// Runs the proposed protocol for `n = keys.len()` users and returns the
/// per-node reports plus the resulting [`GroupSession`] (input state for
/// the dynamic protocols).
///
/// # Panics
/// Panics if fewer than two keys are supplied, if a fault survives
/// `max_attempts`, or if an internal invariant breaks.
pub fn run(
    params: &Params,
    keys: &[GqSecretKey],
    seed: u64,
    config: RunConfig,
) -> (RunReport, GroupSession) {
    let mut gka = GkaRun::new(params, &gq_creds(keys), seed, config, &Faults::none());
    gka.exec.run_to_completion();
    gka.finish()
}

/// `keys` as the GQ credentials [`GkaRun::new`] and
/// [`crate::ssn::SsnRun::new`] take.
pub fn gq_creds(keys: &[GqSecretKey]) -> Vec<Arc<Credential>> {
    keys.iter()
        .map(|k| Arc::new(Credential::Gq(k.clone())))
        .collect()
}

/// The GQ keys of `creds`.
///
/// # Panics
/// Panics if a credential is not a GQ credential.
pub(crate) fn gq_keys(creds: &[Arc<Credential>]) -> Vec<&GqSecretKey> {
    creds
        .iter()
        .map(|c| c.as_gq().expect("a GQ protocol runs on GQ credentials"))
        .collect()
}

/// The ring the holders of `keys` form: identities from the extracted
/// keys (a merged ring's members are not numbered 0..n), positions from
/// slice order.
pub(crate) fn key_ring(keys: &[&GqSecretKey]) -> Vec<UserId> {
    keys.iter()
        .map(|k| {
            let b: [u8; 4] = k.id().try_into().expect("32-bit identities");
            UserId::from_bytes(b)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::Pump;
    use crate::params::{Pkg, SecurityProfile};
    use crate::suite::SuiteRun;

    fn setup(n: u32) -> (Params, Vec<GqSecretKey>) {
        let mut rng = ChaChaRng::seed_from_u64(0x50524f50);
        let pkg = Pkg::setup(&mut rng, SecurityProfile::Toy);
        let keys = pkg.extract_group(n);
        (pkg.params().clone(), keys)
    }

    #[test]
    fn group_of_five_agrees() {
        let (params, keys) = setup(5);
        let (report, session) = run(&params, &keys, 42, RunConfig::default());
        assert!(report.keys_agree());
        assert_eq!(report.attempts, 1);
        assert_eq!(session.members.len(), 5);
        assert_eq!(&session.key, report.key());
    }

    #[test]
    fn two_party_group_works() {
        let (params, keys) = setup(2);
        let (report, _) = run(&params, &keys, 7, RunConfig::default());
        assert!(report.keys_agree());
    }

    #[test]
    fn counts_match_table1_closed_form() {
        let (params, keys) = setup(8);
        let (report, _) = run(&params, &keys, 1, RunConfig::default());
        let expect = InitialProtocol::ProposedGqBatch.per_user_counts(8);
        for node in &report.nodes {
            assert_eq!(node.counts.exps(), expect.exps(), "{}", node.id);
            assert_eq!(
                node.counts.get(CompOp::SignGen(Scheme::Gq)),
                expect.get(CompOp::SignGen(Scheme::Gq))
            );
            assert_eq!(
                node.counts.get(CompOp::SignVerify(Scheme::Gq)),
                expect.get(CompOp::SignVerify(Scheme::Gq))
            );
            assert_eq!(node.counts.msgs_tx, expect.msgs_tx);
            assert_eq!(node.counts.msgs_rx, expect.msgs_rx);
            assert_eq!(node.counts.tx_bits, expect.tx_bits);
            assert_eq!(node.counts.rx_bits, expect.rx_bits);
        }
    }

    #[test]
    fn keys_differ_across_runs() {
        let (params, keys) = setup(3);
        let (r1, _) = run(&params, &keys, 1, RunConfig::default());
        let (r2, _) = run(&params, &keys, 2, RunConfig::default());
        assert_ne!(r1.key(), r2.key());
    }

    #[test]
    fn corrupt_x_triggers_one_retransmission() {
        let (params, keys) = setup(4);
        let config = RunConfig {
            max_attempts: 3,
            fault: Some(Fault::CorruptX {
                node: 2,
                on_attempt: 0,
            }),
        };
        let (report, _) = run(&params, &keys, 9, config);
        assert!(report.keys_agree());
        assert_eq!(report.attempts, 2, "one failed attempt, one clean");
        // Traffic doubles relative to a clean run.
        assert_eq!(report.nodes[0].counts.msgs_tx, 4);
    }

    #[test]
    fn corrupt_s_triggers_one_retransmission() {
        let (params, keys) = setup(4);
        let config = RunConfig {
            max_attempts: 3,
            fault: Some(Fault::CorruptS {
                node: 1,
                on_attempt: 0,
            }),
        };
        let (report, _) = run(&params, &keys, 10, config);
        assert!(report.keys_agree());
        assert_eq!(report.attempts, 2);
    }

    #[test]
    fn fault_with_no_retry_budget_fails_the_run() {
        let (params, keys) = setup(3);
        let config = RunConfig {
            max_attempts: 1,
            fault: Some(Fault::CorruptS {
                node: 1,
                on_attempt: 0,
            }),
        };
        let mut gka = GkaRun::new(&params, &gq_creds(&keys), 11, config, &Faults::none());
        let mut last = Pump::Progressed;
        while last == Pump::Progressed {
            last = gka.pump();
        }
        let want = Pump::Failed(ProtocolFault::RetryExhausted { attempts: 1 });
        assert_eq!(last, want);
        assert_eq!(gka.pump(), want, "a failed run stays failed");
        assert!(!gka.is_done());
    }

    #[test]
    fn detached_member_stalls_the_run_without_blocking_the_caller() {
        let (params, keys) = setup(4);
        let faults = Faults {
            detached: vec![UserId(2)],
            ..Faults::default()
        };
        let mut gka = GkaRun::new(&params, &gq_creds(&keys), 5, RunConfig::default(), &faults);
        // Pump until quiescent: never blocks, never completes.
        for _ in 0..32 {
            if gka.pump() == Pump::Stalled {
                break;
            }
        }
        assert_eq!(gka.pump(), Pump::Stalled);
        assert!(!gka.is_done());
        // The healthy members' Round-1 transmissions are still accounted.
        assert!(gka.partial_counts().msgs_tx >= 3);
    }

    #[test]
    fn interleaved_runs_match_dedicated_runs() {
        // Two groups pumped round-robin on one thread derive exactly the
        // keys they derive when run back to back.
        let (params, keys_a) = setup(4);
        let keys_b = keys_a.clone();
        let (ra, _) = run(&params, &keys_a, 77, RunConfig::default());
        let (rb, _) = run(&params, &keys_b, 78, RunConfig::default());

        let (creds_a, creds_b) = (gq_creds(&keys_a), gq_creds(&keys_b));
        let mut a = GkaRun::new(&params, &creds_a, 77, RunConfig::default(), &Faults::none());
        let mut b = GkaRun::new(&params, &creds_b, 78, RunConfig::default(), &Faults::none());
        while !(a.is_done() && b.is_done()) {
            a.pump();
            b.pump();
        }
        assert_eq!(a.finish().0.key(), ra.key());
        assert_eq!(b.finish().0.key(), rb.key());
    }
}
