//! Group session state carried between the initial GKA and the dynamic
//! membership protocols.
//!
//! After a successful run of the proposed protocol every member holds: its
//! ring position, its BD exponent `r_i`, everyone's public share `z_j`, its
//! last GQ commitment `(τ_i, t_i)` and the group key `K`. The dynamic
//! protocols (paper §7) consume and update exactly this state — e.g. the
//! Leave protocol's even-indexed members *reuse* their stored `τ_i` against
//! a fresh challenge, precisely as the paper specifies (see the security
//! note in `DESIGN.md` §security-notes).
//!
//! [`GroupSession`] is the omniscient test-harness view (all members); each
//! member's *own* knowledge is the corresponding [`MemberState`] plus the
//! public `z` shares, which protocol code accesses through
//! [`GroupSession::z_of`] to keep the "who knows what" discipline visible.

use std::sync::Arc;

use egka_bigint::Ubig;
use egka_sig::GqSecretKey;

use crate::ident::UserId;
use crate::params::{Credential, Params};
use crate::wire::{DecodeError, Reader, Writer};

/// One member's private protocol state.
#[derive(Clone, Debug)]
pub struct MemberState {
    /// Identity.
    pub id: UserId,
    /// Extracted GQ ID key.
    pub gq_key: GqSecretKey,
    /// Current BD exponent `r_i`.
    pub r: Ubig,
    /// Current public share `z_i = g^{r_i}` (known to the whole group).
    pub z: Ubig,
    /// Last GQ commitment randomness `τ_i`.
    pub tau: Ubig,
    /// Last GQ commitment `t_i = τ_i^e` (known to the whole group).
    pub t: Ubig,
    /// The baseline credential the member signs with (BD+SOK, BD+ECDSA,
    /// BD+DSA), issued once by the PKG's authority and carried from step
    /// to step like `gq_key`. `None` for the other suites and after
    /// [`GroupSession::decode_state`]: a credential is a function of
    /// (authority, id), so the next baseline step re-issues the same one.
    pub cred: Option<Arc<Credential>>,
}

/// A group that has agreed on a key.
#[derive(Clone, Debug)]
pub struct GroupSession {
    /// Shared protocol parameters.
    pub params: Params,
    /// Members in ring order (`members[0]` is the controller `U_1`).
    pub members: Vec<MemberState>,
    /// The current group key `K`.
    pub key: Ubig,
}

impl GroupSession {
    /// Group size `n`.
    pub fn n(&self) -> usize {
        self.members.len()
    }

    /// The public share of the member at ring position `i`.
    pub fn z_of(&self, i: usize) -> &Ubig {
        &self.members[i].z
    }

    /// Ring predecessor of position `i`.
    pub fn pred(&self, i: usize) -> usize {
        (i + self.n() - 1) % self.n()
    }

    /// Ring successor of position `i`.
    pub fn succ(&self, i: usize) -> usize {
        (i + 1) % self.n()
    }

    /// Serializes the key for use as symmetric key material (`E_K(·)`).
    pub fn key_material(&self) -> Vec<u8> {
        self.key.to_bytes_be()
    }

    /// Ring position of the member with identity `id`, if present.
    ///
    /// Batched rekeying (the `egka-service` epoch coordinator) addresses
    /// members by identity while the §7 protocols address them by ring
    /// position; this is the bridge.
    pub fn position_of(&self, id: UserId) -> Option<usize> {
        self.members.iter().position(|m| m.id == id)
    }

    /// True iff `id` is currently a member.
    pub fn contains(&self, id: UserId) -> bool {
        self.position_of(id).is_some()
    }

    /// Member identities in ring order.
    pub fn member_ids(&self) -> Vec<UserId> {
        self.members.iter().map(|m| m.id).collect()
    }

    /// Serializes the full per-member session state (identities, BD
    /// exponents, public shares, GQ commitments and extracted ID keys)
    /// plus the group key — everything the §7 dynamics consume — into `w`.
    /// Baseline credentials are not written; see [`MemberState::cred`].
    ///
    /// The shared [`Params`] are deliberately *not* written: they belong
    /// to the PKG the service runs on, and a store that duplicated them
    /// per group could silently resurrect a session under the wrong
    /// algebra. [`GroupSession::decode_state`] takes them from the caller.
    pub fn encode_state(&self, w: &mut Writer) {
        w.put_u32(self.members.len() as u32);
        for m in &self.members {
            w.put_id(m.id)
                .put_bytes(&m.gq_key.id)
                .put_ubig(&m.gq_key.s_id)
                .put_ubig(&m.r)
                .put_ubig(&m.z)
                .put_ubig(&m.tau)
                .put_ubig(&m.t);
        }
        w.put_ubig(&self.key);
    }

    /// Reconstructs a session written by [`GroupSession::encode_state`]
    /// under the caller's shared parameters.
    pub fn decode_state(r: &mut Reader<'_>, params: &Params) -> Result<GroupSession, DecodeError> {
        let n = r.get_u32()? as usize;
        // A damaged count fails on the first truncated member read; only
        // the pre-allocation needs guarding.
        let mut members = Vec::with_capacity(n.min(1 << 16));
        for _ in 0..n {
            let id = r.get_id()?;
            let gq_id = r.get_bytes()?.to_vec();
            let s_id = r.get_ubig()?;
            members.push(MemberState {
                id,
                gq_key: GqSecretKey { id: gq_id, s_id },
                r: r.get_ubig()?,
                z: r.get_ubig()?,
                tau: r.get_ubig()?,
                t: r.get_ubig()?,
                cred: None,
            });
        }
        let key = r.get_ubig()?;
        Ok(GroupSession {
            params: params.clone(),
            members,
            key,
        })
    }

    /// Checks the defining invariant: `K = g^{Σ r_i r_{i+1}}` and
    /// `z_i = g^{r_i}` for every member (test/debug helper; a real node
    /// cannot evaluate this, it requires all secrets).
    pub fn invariant_holds(&self) -> bool {
        use egka_bigint::{mod_mul, mod_pow};
        let g = &self.params.bd;
        for m in &self.members {
            if mod_pow(&g.g, &m.r, &g.p) != m.z {
                return false;
            }
        }
        let n = self.n();
        let mut exp = Ubig::zero();
        for i in 0..n {
            let prod = mod_mul(&self.members[i].r, &self.members[(i + 1) % n].r, &g.q);
            exp = egka_bigint::mod_add(&exp, &prod, &g.q);
        }
        mod_pow(&g.g, &exp, &g.p) == self.key
    }
}

#[cfg(test)]
mod tests {
    use crate::params::{Pkg, SecurityProfile};
    use crate::proposed::{self, RunConfig};
    use egka_hash::ChaChaRng;
    use rand::SeedableRng;

    #[test]
    fn session_from_run_satisfies_invariant() {
        let mut rng = ChaChaRng::seed_from_u64(0x475253);
        let pkg = Pkg::setup(&mut rng, SecurityProfile::Toy);
        let keys = pkg.extract_group(4);
        let (_, session) = proposed::run(pkg.params(), &keys, 5, RunConfig::default());
        assert!(session.invariant_holds());
        assert_eq!(session.n(), 4);
        assert_eq!(session.pred(0), 3);
        assert_eq!(session.succ(3), 0);
    }

    #[test]
    fn state_codec_roundtrips_bit_for_bit() {
        use crate::wire::{Reader, Writer};
        let mut rng = ChaChaRng::seed_from_u64(0x57a7e);
        let pkg = Pkg::setup(&mut rng, SecurityProfile::Toy);
        let keys = pkg.extract_group(5);
        let (_, session) = proposed::run(pkg.params(), &keys, 9, RunConfig::default());

        let mut w = Writer::new();
        session.encode_state(&mut w);
        let buf = w.finish();
        let mut r = Reader::new(&buf);
        let back = crate::GroupSession::decode_state(&mut r, pkg.params()).unwrap();
        r.expect_end().unwrap();

        assert_eq!(back.key, session.key);
        assert_eq!(back.n(), session.n());
        for (a, b) in back.members.iter().zip(&session.members) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.gq_key, b.gq_key);
            assert_eq!(a.r, b.r);
            assert_eq!(a.z, b.z);
            assert_eq!(a.tau, b.tau);
            assert_eq!(a.t, b.t);
        }
        assert!(back.invariant_holds());

        // Truncation is a typed decode error, never a panic.
        for cut in [0usize, 1, 7, buf.len() / 2, buf.len() - 1] {
            let mut r = Reader::new(&buf[..cut]);
            assert!(crate::GroupSession::decode_state(&mut r, pkg.params()).is_err());
        }
    }

    #[test]
    fn tampered_session_fails_invariant() {
        let mut rng = ChaChaRng::seed_from_u64(0x475254);
        let pkg = Pkg::setup(&mut rng, SecurityProfile::Toy);
        let keys = pkg.extract_group(3);
        let (_, mut session) = proposed::run(pkg.params(), &keys, 6, RunConfig::default());
        session.key =
            egka_bigint::mod_mul(&session.key, &session.params.bd.g, &session.params.bd.p);
        assert!(!session.invariant_holds());
    }
}
