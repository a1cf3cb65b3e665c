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
    /// Current BD exponent `r_i`.
    pub r: Ubig,
    /// Current public share `z_i = g^{r_i}` (known to the whole group).
    pub z: Ubig,
    /// Last GQ commitment randomness `τ_i`.
    pub tau: Ubig,
    /// Last GQ commitment `t_i = τ_i^e` (known to the whole group).
    pub t: Ubig,
    /// The credential the member signs with, issued once by the PKG and
    /// carried from step to step: its GQ ID key (proposed, SSN) or a
    /// baseline's credential (BD+SOK, BD+ECDSA, BD+DSA). A session's state
    /// keeps only GQ keys, so a baseline member decodes with `None`: a
    /// credential is a function of (PKG, id), and the next step that
    /// needs one re-issues the same.
    pub cred: Option<Arc<Credential>>,
}

impl MemberState {
    /// The member's GQ ID key.
    ///
    /// # Panics
    /// Panics if the member carries no GQ credential: only the proposed
    /// suite's dynamics ask, and its members always carry one.
    pub fn gq(&self) -> &GqSecretKey {
        self.cred
            .as_deref()
            .and_then(Credential::as_gq)
            .expect("a proposed-suite member carries its GQ key")
    }
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
    /// exponents, public shares, GQ commitments and GQ ID keys) plus the
    /// group key — everything the §7 dynamics consume — into `w`. A member
    /// without a GQ key writes an empty identity and a zero key, and
    /// baseline credentials are not written; see [`MemberState::cred`].
    ///
    /// The shared [`Params`] are deliberately *not* written: they belong
    /// to the PKG the service runs on, and a store that duplicated them
    /// per group could silently resurrect a session under the wrong
    /// algebra. [`GroupSession::decode_state`] takes them from the caller.
    pub fn encode_state(&self, w: &mut Writer) {
        let zero = Ubig::zero();
        w.put_u32(self.members.len() as u32);
        for m in &self.members {
            let (gq_id, s_id) = match m.cred.as_deref().and_then(Credential::as_gq) {
                Some(key) => (key.id(), &key.s_id),
                None => (&[][..], &zero),
            };
            w.put_id(m.id)
                .put_bytes(gq_id)
                .put_ubig(s_id)
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
                r: r.get_ubig()?,
                z: r.get_ubig()?,
                tau: r.get_ubig()?,
                t: r.get_ubig()?,
                cred: (!gq_id.is_empty())
                    .then(|| Arc::new(Credential::Gq(GqSecretKey::new(gq_id, s_id)))),
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
        use egka_bigint::mod_mul;
        let g = &self.params.bd;
        for m in &self.members {
            if g.g_pow(&m.r) != m.z {
                return false;
            }
        }
        let n = self.n();
        let mut exp = Ubig::zero();
        for i in 0..n {
            let prod = mod_mul(&self.members[i].r, &self.members[(i + 1) % n].r, &g.q);
            exp = egka_bigint::mod_add(&exp, &prod, &g.q);
        }
        g.g_pow(&exp) == self.key
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
    fn clones_and_decoded_sessions_share_the_pkgs_kernels_and_comb() {
        use crate::wire::{Reader, Writer};
        use egka_bigint::{Modulus, SchnorrGroup, Ubig};
        let mut rng = ChaChaRng::seed_from_u64(0x5a4e);
        let pkg = Pkg::setup(&mut rng, SecurityProfile::Toy);
        let keys = pkg.extract_group(4);
        let (_, session) = proposed::run(pkg.params(), &keys, 3, RunConfig::default());
        let mut w = Writer::new();
        session.encode_state(&mut w);
        let buf = w.finish();
        let decoded =
            crate::GroupSession::decode_state(&mut Reader::new(&buf), pkg.params()).unwrap();
        let own = pkg.params();
        for params in [&own.clone(), &session.params, &decoded.params] {
            assert!(SchnorrGroup::ptr_eq(&params.bd, &own.bd));
            assert!(Modulus::ptr_eq(&params.gq.n, &own.gq.n));
            assert!(Modulus::ptr_eq(&params.gq.n, &pkg.gq().params.n));
        }
        // Equal values built apart share nothing.
        let rebuilt = SchnorrGroup::new(
            Ubig::clone(&own.bd.p),
            Ubig::clone(&own.bd.q),
            own.bd.g.clone(),
        )
        .unwrap();
        assert_eq!(rebuilt, own.bd);
        assert!(!SchnorrGroup::ptr_eq(&rebuilt, &own.bd));
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
            assert_eq!(a.gq(), b.gq());
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

    /// The state bytes of a two-member Toy session, pinned: a GQ member
    /// writes its identity and `S_ID`, and snapshots and the seal cache of
    /// proposed groups depend on these bytes.
    #[test]
    fn state_encoding_is_pinned() {
        use crate::wire::Writer;
        let mut rng = ChaChaRng::seed_from_u64(0x9177);
        let pkg = Pkg::setup(&mut rng, SecurityProfile::Toy);
        let keys = pkg.extract_group(2);
        let (_, session) = proposed::run(pkg.params(), &keys, 3, RunConfig::default());
        let mut w = Writer::new();
        session.encode_state(&mut w);
        let hex: String = w.finish().iter().map(|b| format!("{b:02x}")).collect();
        let pinned = concat!(
            "00000002000000000004000000000020a9b8ccea892bb560a604b41691d84a82",
            "576ec810eb1bce5e17a15ac8f3e79ca0000cdc5a4f579b4fe9cbc341ec020020",
            "b0ad4020cdfcd74e32bfb83ae054404c4ba9d999c31ba49f83171bffc52af6c0",
            "00203c0f8dd22e415beb26be4ed372679ceec6760ba54392f7765d85eef2c969",
            "45ea0020c2aecfa6e6446d53930d687b99f5b7313664b7b2cf7e0f28ca6ba64d",
            "b9e7142b00000001000400000001002058f69eec88084a969d56d4b104e2e2a7",
            "7a3d1eb2dd675fd67b08f97638dfb5de000c128aacbe7d6e9c8f76f0ea690020",
            "24420eae1e620ed0e70c2f474232259cfbd644581d32ddf88f1d359dccc859f8",
            "002048ed4f47649db5d9020bbd579f1efcca83f23916f3764ec1070ce6703c0d",
            "03d300207722ce779f12e9aacb6057dadb086123e22ef2e5b0d1c2c53dc5e61a",
            "cb4def6000202d882408da0f97eae66cbacd7dd67c97cb87cb46e9436f3fb3f1",
            "6df2b817e0d4",
        );
        assert_eq!(hex, pinned);
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
