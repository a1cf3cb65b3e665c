//! The paper's four dynamic membership protocols (§7).
//!
//! All four avoid re-running the full GKA: Join and Merge re-key through
//! **symmetric envelopes** under keys the affected parties already share
//! (the current group key `K`, or a fresh pairwise DH key), while Leave and
//! Partition run a *reduced* BD round in which only the odd-indexed
//! survivors refresh their exponents.
//!
//! ## Accounting model
//!
//! Messages are multicast to their **intended recipients** (paper
//! convention; see `egka_energy::complexity`), sealed payloads are priced
//! at plaintext size, and each role's metered operations reproduce the
//! per-role closed forms behind Table 5. The envelopes themselves are real
//! (`egka-symmetric`: AES-128-CBC + HMAC with keys derived from `K`), so
//! the "actual bits" column shows the true cost of honest framing.
//!
//! ## Identified specification gaps (documented, not silently patched)
//!
//! * After a paper-exact Join, `U_1`'s refreshed share `z'_1 = g^{r'_1}` is
//!   never divulged, so a *subsequent* Leave could not compute `X'_2` or
//!   `X'_{n+1}`. [`join::join`]'s `composable` flag implements the obvious
//!   fix (carry `z'_1` inside `m'_1`'s envelope, +1 exponentiation at `U_1`
//!   and +1024 nominal bits) as an ablation.
//! * The Leave/Partition protocols let even-indexed members **reuse** their
//!   GQ commitment `τ_i` under a fresh challenge, which is unsound for GQ
//!   as a proof of knowledge (two responses for one commitment leak
//!   `S_ID^{c−c'}`). Implemented exactly as specified; see DESIGN.md
//!   §security-notes.

pub mod join;
pub mod leave;
pub mod merge;

pub use join::{join, JoinOutcome, JoinRun};
pub use leave::{leave, partition, LeaveOutcome, LeaveRun};
pub use merge::{merge, merge_many, MergeOutcome, MergeRun};

use std::cell::OnceCell;

use egka_bigint::{mod_mul, SchnorrGroup, Ubig};
use egka_sig::{GqParams, GqSecretKey, GqSignature};
use egka_symmetric::Envelope;
use rand::Rng;

use crate::ident::UserId;
use crate::wire::{Reader, Writer};

/// A controller's re-keyed `K* = K · (z_a · z_b)^{−r} · (z_a · z_c)^{r'}`:
/// Join's eq. (5) (`z_2`, `z_n`, the newcomer's `z_{n+1}`) and each half of
/// Merge's eqs. (7)/(8) (own second share, own edge, the peer's edge). It
/// runs as `K · (z_a · z_b)^{q−r} · (z_a · z_c)^{r'}`, one two-base
/// exponentiation and no inversion, like [`crate::bd::round2_x`]:
/// bit-identical to the inversion form on subgroup shares, and a value
/// (never a panic) for any peer-supplied `z_c`.
pub(crate) fn k_star(
    bd: &SchnorrGroup,
    key: &Ubig,
    z_a: &Ubig,
    z_b: &Ubig,
    r: &Ubig,
    z_c: &Ubig,
    r_new: &Ubig,
) -> Ubig {
    let p = &bd.p;
    let neg_r = bd.q.checked_sub(r).expect("r < q");
    let t = p.pow2(&mod_mul(z_a, z_b, p), &neg_r, &mod_mul(z_a, z_c, p), r_new);
    mod_mul(key, &t, p)
}

/// The body `U ‖ v_1 ‖ … ‖ v_k` a [`signed`] message signs.
fn signed_body(id: UserId, values: &[&Ubig]) -> Writer {
    let mut w = Writer::new();
    w.put_id(id);
    for v in values {
        w.put_ubig(v);
    }
    w
}

/// `U ‖ v_1 ‖ … ‖ v_k ‖ σ` with `σ` by `key` over the rest: Join's
/// announcement `m_{n+1}` and Merge's round-1 message.
pub(crate) fn signed<R: Rng + ?Sized>(
    gq: &GqParams,
    rng: &mut R,
    (id, key): (UserId, &GqSecretKey),
    values: &[&Ubig],
) -> bytes::Bytes {
    let sig = gq.sign(rng, key, &signed_body(id, values).finish());
    let mut w = signed_body(id, values);
    w.put_ubig(&sig.s).put_ubig(&sig.c);
    w.finish()
}

/// The values of a [`signed`] message, if it names `signer` and its
/// signature verifies under `h_inv = H(signer)⁻¹`. A message another
/// identity signed, however valid, is not `signer`'s.
pub(crate) fn read_signed<const K: usize>(
    gq: &GqParams,
    payload: &[u8],
    (signer, h_inv): (UserId, &Ubig),
) -> Option<[Ubig; K]> {
    let mut r = Reader::new(payload);
    let id = r.get_id().expect("signed message id");
    let values: [Ubig; K] = std::array::from_fn(|_| r.get_ubig().expect("signed value"));
    let s = r.get_ubig().expect("signature s");
    let c = r.get_ubig().expect("signature c");
    r.expect_end().expect("no trailing bytes");
    let body = signed_body(id, &values.each_ref()).finish();
    (id == signer && gq.verify_with_inverse(h_inv, &body, &GqSignature { s, c })).then_some(values)
}

/// One node's old group key `K` as symmetric key material, with its
/// [`Envelope`] derived on first use. A node that seals or opens under `K`
/// twice derives the envelope once; each node derives its own.
pub(crate) struct GroupEnvelope {
    material: Vec<u8>,
    env: OnceCell<Envelope>,
}

impl GroupEnvelope {
    pub(crate) fn new(material: Vec<u8>) -> Self {
        GroupEnvelope {
            material,
            env: OnceCell::new(),
        }
    }

    /// The envelope under `K`.
    pub(crate) fn get(&self) -> &Envelope {
        self.env
            .get_or_init(|| Envelope::from_key_material(&self.material))
    }
}

/// Seals `key_value ‖ sender_id` (and optionally an extra share) under
/// `env`, as the paper's `E_K(K* ‖ U)`.
pub(crate) fn seal_key<R: Rng + ?Sized>(
    rng: &mut R,
    env: &Envelope,
    key_value: &Ubig,
    sender: UserId,
    extra_share: Option<&Ubig>,
) -> Vec<u8> {
    let mut w = Writer::new();
    w.put_ubig(key_value).put_id(sender);
    match extra_share {
        Some(z) => w.put_ubig(z),
        None => w.put_bytes(&[]),
    };
    env.seal(rng, &w.finish())
}

/// Opens a [`seal_key`] envelope and checks the embedded identity — the
/// paper's "checks if the identity was decrypted correctly to ensure the
/// validity of K*". Returns `(key_value, extra_share)`.
pub(crate) fn open_key(
    env: &Envelope,
    sealed: &[u8],
    expect_sender: UserId,
) -> Option<(Ubig, Option<Ubig>)> {
    let plain = env.open(sealed).ok()?;
    let mut r = Reader::new(&plain);
    let key_value = r.get_ubig().ok()?;
    let sender = r.get_id().ok()?;
    if sender != expect_sender {
        return None;
    }
    // The extra field is either a share (non-empty) or an empty marker.
    let rest = r.get_ubig().ok()?;
    r.expect_end().ok()?;
    let extra = if rest.is_zero() { None } else { Some(rest) };
    Some((key_value, extra))
}

#[cfg(test)]
pub(crate) mod testutil {
    use egka_hash::ChaChaRng;
    use egka_sig::GqSecretKey;
    use rand::SeedableRng;

    use crate::group::GroupSession;
    use crate::params::{Pkg, SecurityProfile};
    use crate::proposed::{self, RunConfig};

    /// A toy PKG + an agreed group of `n`, for dynamics tests.
    pub fn session(n: u32, seed: u64) -> (Pkg, GroupSession) {
        let mut rng = ChaChaRng::seed_from_u64(0xd1a_0000 ^ seed);
        let pkg = Pkg::setup(&mut rng, SecurityProfile::Toy);
        let keys = pkg.extract_group(n);
        let (_, session) = proposed::run(pkg.params(), &keys, seed, RunConfig::default());
        (pkg, session)
    }

    /// Extracts a key for a brand-new member.
    pub fn new_member(pkg: &Pkg, id: u32) -> GqSecretKey {
        pkg.extract(crate::ident::UserId(id))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use egka_hash::ChaChaRng;
    use rand::SeedableRng;

    #[test]
    fn seal_open_roundtrip_with_identity_check() {
        let mut rng = ChaChaRng::seed_from_u64(1);
        let k = Ubig::from_hex("aabbccdd00112233").unwrap();
        let env = GroupEnvelope::new(b"group key".to_vec());
        let sealed = seal_key(&mut rng, env.get(), &k, UserId(3), None);
        let (got, extra) = open_key(env.get(), &sealed, UserId(3)).unwrap();
        assert_eq!(got, k);
        assert!(extra.is_none());
        // Wrong expected sender fails the identity check.
        assert!(open_key(env.get(), &sealed, UserId(4)).is_none());
        // Wrong key material fails the MAC.
        let other = Envelope::from_key_material(b"other key");
        assert!(open_key(&other, &sealed, UserId(3)).is_none());
    }

    #[test]
    fn seal_open_carries_extra_share() {
        let mut rng = ChaChaRng::seed_from_u64(2);
        let k = Ubig::from_u64(42);
        let z = Ubig::from_hex("deadbeef").unwrap();
        let env = Envelope::from_key_material(b"km");
        let sealed = seal_key(&mut rng, &env, &k, UserId(0), Some(&z));
        let (_, extra) = open_key(&env, &sealed, UserId(0)).unwrap();
        assert_eq!(extra, Some(z));
    }
}
