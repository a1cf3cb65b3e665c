//! Durable group state: WAL record codec, snapshot codec, recovery.
//!
//! ## What is logged
//!
//! The service's state is a deterministic function of its configuration
//! (seed, shards, policy, radio) and the *sequence of state-changing
//! calls* made against it. So the WAL does not persist protocol
//! transcripts — it persists the **commands** ([`WalRecord`]): group
//! creations, submitted membership events, power events, battery installs,
//! loss changes, and one [`WalRecord::EpochCommit`] per applied epoch,
//! appended *before* the epoch's report is returned to the caller.
//! Recovery replays the commands through the ordinary service entry
//! points; determinism does the rest, bit for bit.
//!
//! ## Group commit
//!
//! Every record goes to one log. A [`WalRecord::Submit`] is written
//! without a durability barrier (`Store::append_unsynced`); every other
//! record is a durable `Store::append`, whose one barrier also covers the
//! submits before it. So an epoch of many events costs one fsync, paid by
//! its commit record, and the write-ahead rule still holds: an epoch's
//! submits are durable before its commit, and the commit before its
//! report. A process crash loses nothing (every record reached the
//! backend when it was logged); a power or OS failure can lose the
//! submits since the last durable record, which no report acknowledged.
//!
//! ## What is snapshotted
//!
//! Replaying a long history re-runs every rekey's cryptography. Every
//! `snapshot_every` epochs the service therefore serializes its *state*
//! directly — membership, per-group [`SuiteId`], epoch, session-key
//! material (sealed under the store's envelope key), pending queues, the
//! battery ledger, detached members — and installs it atomically,
//! truncating the log. Recovery is then snapshot + tail.
//!
//! Every record carries a monotone **log sequence number**; the snapshot
//! records the LSN watermark it covers, so a tail that survived a crash
//! between snapshot install and log truncation replays exactly once (the
//! file backend's documented crash window).
//!
//! ## Sealing
//!
//! Session keys are the one secret the service holds; at rest they are
//! sealed with the authenticated `E_K(·)` envelope (`egka-symmetric`)
//! under a 32-byte store key supplied by the deployment
//! ([`StoreConfig::seal_key`]). A snapshot opened with the wrong key — or
//! a tampered one — surfaces as [`StoreError::Corrupt`], never as a wrong
//! group key.
//!
//! Each group's IV is **synthetic** (SIV-style): the first 16 bytes of an
//! HMAC-SHA256 over `gid ‖ session state`, under a key derived from the
//! store key independently of the envelope's encryption and MAC keys. A
//! sealed session is therefore a function of the group's id and state,
//! so each group caches its blob ([`GroupState`]) and a snapshot seals
//! only the groups whose session changed since the last one — on the
//! shard workers, in parallel — and copies every other blob. An IV
//! repeats only for a byte-identical plaintext under the same id, so what
//! equal blobs in two snapshots reveal is that the group did not change
//! between them, and nothing else. The blob format (IV, CBC ciphertext,
//! tag) is the random-IV envelope's, so snapshots sealed with random IVs
//! still open.

use std::sync::Arc;

use egka_core::suite::SuiteId;
use egka_core::wire::{DecodeError, Reader, Writer};
use egka_core::{GroupSession, Pkg, UserId};
use egka_hash::{hkdf, Hmac, Sha256};
use egka_store::{Store, StoreError};
use egka_symmetric::Envelope;
use egka_trace::StallCause;

use crate::event::{GroupId, MembershipEvent};
use crate::shard::GroupState;

/// Snapshot format magic + version (bump on layout changes).
const SNAPSHOT_MAGIC: &[u8; 8] = b"EGKASNP3";
/// WAL record format version.
const WAL_VERSION: u8 = 1;

/// Durability configuration handed to
/// [`crate::ServiceBuilder::store`]: the backend plus the sealing and
/// compaction knobs.
#[derive(Clone)]
pub struct StoreConfig {
    /// The WAL + snapshot backing.
    pub backend: Arc<dyn Store>,
    /// 32-byte key the snapshots' session-key material is sealed under.
    /// Recovery requires the same key. Defaults to an all-zero
    /// development key — a real deployment supplies its own.
    pub seal_key: [u8; 32],
    /// Install a compacting snapshot every this many epochs (0 disables
    /// periodic snapshots; the WAL then grows until
    /// [`crate::KeyService::snapshot_now`] is called).
    pub snapshot_every: u64,
}

impl StoreConfig {
    /// Durability on `backend` with the development seal key and a
    /// snapshot every 8 epochs.
    pub fn new(backend: Arc<dyn Store>) -> Self {
        StoreConfig {
            backend,
            seal_key: [0u8; 32],
            snapshot_every: 8,
        }
    }

    /// Replaces the snapshot sealing key.
    pub fn seal_key(mut self, key: [u8; 32]) -> Self {
        self.seal_key = key;
        self
    }

    /// Replaces the snapshot cadence (0 = never automatically).
    pub fn snapshot_every(mut self, epochs: u64) -> Self {
        self.snapshot_every = epochs;
        self
    }

    pub(crate) fn sealer(&self) -> Sealer {
        Sealer::new(&self.seal_key)
    }
}

/// Seals group sessions under a store key with a synthetic IV (module
/// docs, "Sealing").
pub(crate) struct Sealer {
    envelope: Envelope,
    /// Keyed with a key derived from the store key independently of the
    /// envelope's encryption and MAC keys.
    siv: Hmac<Sha256>,
}

impl Sealer {
    pub(crate) fn new(seal_key: &[u8; 32]) -> Self {
        Sealer {
            envelope: Envelope::from_key_material(seal_key),
            siv: Hmac::new(&hkdf(b"egka.snapshot.siv.v1", seal_key, b"siv", 32)),
        }
    }

    /// Seals `gid`'s session under the IV `HMAC(siv, gid ‖ state)[..16]`.
    pub(crate) fn seal(&self, gid: GroupId, session: &GroupSession) -> Box<[u8]> {
        let mut w = Writer::new();
        session.encode_state(&mut w);
        let plain = w.finish();
        let mut mac = self.siv.clone();
        mac.update(&gid.to_be_bytes());
        mac.update(&plain);
        let iv: [u8; 16] = mac.finalize()[..16]
            .try_into()
            .expect("HMAC-SHA256 gives 32 bytes");
        self.envelope.seal_with_iv(&iv, &plain).into_boxed_slice()
    }

    /// Opens a sealed session, whichever way its IV was chosen.
    fn open(&self, sealed: &[u8], pkg: &Pkg) -> Result<GroupSession, StoreError> {
        let plain = self.envelope.open(sealed).map_err(|_| {
            corrupt("sealed session failed authentication (damaged or wrong seal key)")
        })?;
        let mut r = Reader::new(&plain);
        let session = GroupSession::decode_state(&mut r, pkg.params())
            .map_err(|_| corrupt("sealed session payload malformed"))?;
        r.expect_end()
            .map_err(|_| corrupt("sealed session has trailing bytes"))?;
        Ok(session)
    }
}

impl core::fmt::Debug for StoreConfig {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("StoreConfig")
            .field("backend", &"<dyn Store>")
            .field("seal_key", &"<sealed>")
            .field("snapshot_every", &self.snapshot_every)
            .finish()
    }
}

/// What [`crate::ServiceBuilder::recover`] did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Epoch the restored snapshot covered (`None` = no snapshot, full
    /// log replay).
    pub snapshot_epoch: Option<u64>,
    /// WAL records replayed from the tail.
    pub records_replayed: u64,
    /// Committed epochs re-executed from the tail.
    pub epochs_replayed: u64,
    /// Groups live after recovery.
    pub groups_recovered: u64,
}

/// One durable state-changing command.
#[derive(Clone, Debug, PartialEq)]
pub(crate) enum WalRecord {
    /// First record of every fresh log: the topology the commands were
    /// issued under, so a log-only recovery (no snapshot yet) rejects a
    /// mismatched builder instead of silently deriving different keys.
    ConfigHeader { shards: u32, seed: u64 },
    /// `create_group(gid, members)` succeeded.
    CreateGroup { gid: GroupId, members: Vec<UserId> },
    /// `submit(gid, event)` accepted the event into a queue.
    Submit {
        gid: GroupId,
        event: MembershipEvent,
    },
    /// `detach_member(user)`.
    Detach(UserId),
    /// `attach_member(user)`.
    Attach(UserId),
    /// `set_battery(user, capacity_uj)`.
    SetBattery { user: UserId, capacity_uj: f64 },
    /// `set_loss(prob)`.
    SetLoss(f64),
    /// A `tick()` applied this epoch in full (appended before the report
    /// is returned — the write-ahead commit point).
    EpochCommit { epoch: u64 },
    /// The robustness engine evicted members: the encoded, signed
    /// [`egka_robust::BlameCert`]. Logged *before* the synthesized Leave
    /// events take effect, so replay can cross-check that it re-derives
    /// the identical eviction from the replayed ledger.
    Evict { cert: Vec<u8> },
    /// `add_shard()` grew the pool to `shards`. Logged *after* the grow's
    /// relocations completed, so replay re-runs the identical handoffs.
    AddShard { shards: u32 },
    /// `remove_shard()` shrank the pool to `shards`.
    RemoveShard { shards: u32 },
    /// A group was pinned to `to` — manual `move_group`, a rebalancer
    /// decision, or a relocation forced by a shrink. Replay re-applies the
    /// pin so recovery rebuilds placement bit-for-bit even when the
    /// triggering load statistics are not persisted.
    MoveGroup { gid: GroupId, to: u32 },
}

mod tag {
    pub const CONFIG_HEADER: u8 = 8;
    pub const CREATE: u8 = 1;
    pub const SUBMIT: u8 = 2;
    pub const DETACH: u8 = 3;
    pub const ATTACH: u8 = 4;
    pub const SET_BATTERY: u8 = 5;
    pub const SET_LOSS: u8 = 6;
    pub const EPOCH_COMMIT: u8 = 7;
    pub const EVICT: u8 = 9;
    pub const ADD_SHARD: u8 = 10;
    pub const REMOVE_SHARD: u8 = 11;
    pub const MOVE_GROUP: u8 = 12;
}

mod event_tag {
    pub const JOIN: u8 = 1;
    pub const LEAVE: u8 = 2;
    pub const MERGE_WITH: u8 = 3;
}

fn put_event(w: &mut Writer, event: &MembershipEvent) {
    match *event {
        MembershipEvent::Join(u) => {
            w.put_u8(event_tag::JOIN).put_id(u);
        }
        MembershipEvent::Leave(u) => {
            w.put_u8(event_tag::LEAVE).put_id(u);
        }
        MembershipEvent::MergeWith(g) => {
            w.put_u8(event_tag::MERGE_WITH).put_u64(g);
        }
    }
}

fn get_event(r: &mut Reader<'_>) -> Result<MembershipEvent, DecodeError> {
    match r.get_u8()? {
        event_tag::JOIN => Ok(MembershipEvent::Join(r.get_id()?)),
        event_tag::LEAVE => Ok(MembershipEvent::Leave(r.get_id()?)),
        event_tag::MERGE_WITH => Ok(MembershipEvent::MergeWith(r.get_u64()?)),
        _ => Err(DecodeError {
            what: "unknown membership-event tag",
        }),
    }
}

impl WalRecord {
    /// Encodes `[version][lsn][tag][fields…]`.
    pub(crate) fn encode(&self, lsn: u64) -> Vec<u8> {
        let mut w = Writer::new();
        w.put_u8(WAL_VERSION).put_u64(lsn);
        match self {
            WalRecord::ConfigHeader { shards, seed } => {
                w.put_u8(tag::CONFIG_HEADER).put_u32(*shards).put_u64(*seed);
            }
            WalRecord::CreateGroup { gid, members } => {
                w.put_u8(tag::CREATE)
                    .put_u64(*gid)
                    .put_u32(members.len() as u32);
                for u in members {
                    w.put_id(*u);
                }
            }
            WalRecord::Submit { gid, event } => {
                w.put_u8(tag::SUBMIT).put_u64(*gid);
                put_event(&mut w, event);
            }
            WalRecord::Detach(u) => {
                w.put_u8(tag::DETACH).put_id(*u);
            }
            WalRecord::Attach(u) => {
                w.put_u8(tag::ATTACH).put_id(*u);
            }
            WalRecord::SetBattery { user, capacity_uj } => {
                w.put_u8(tag::SET_BATTERY)
                    .put_id(*user)
                    .put_f64(*capacity_uj);
            }
            WalRecord::SetLoss(p) => {
                w.put_u8(tag::SET_LOSS).put_f64(*p);
            }
            WalRecord::EpochCommit { epoch } => {
                w.put_u8(tag::EPOCH_COMMIT).put_u64(*epoch);
            }
            WalRecord::Evict { cert } => {
                w.put_u8(tag::EVICT).put_blob(cert);
            }
            WalRecord::AddShard { shards } => {
                w.put_u8(tag::ADD_SHARD).put_u32(*shards);
            }
            WalRecord::RemoveShard { shards } => {
                w.put_u8(tag::REMOVE_SHARD).put_u32(*shards);
            }
            WalRecord::MoveGroup { gid, to } => {
                w.put_u8(tag::MOVE_GROUP).put_u64(*gid).put_u32(*to);
            }
        }
        w.finish().to_vec()
    }

    /// Decodes one record payload, returning `(lsn, record)`.
    pub(crate) fn decode(payload: &[u8]) -> Result<(u64, WalRecord), DecodeError> {
        let mut r = Reader::new(payload);
        if r.get_u8()? != WAL_VERSION {
            return Err(DecodeError {
                what: "unsupported wal record version",
            });
        }
        let lsn = r.get_u64()?;
        let record = match r.get_u8()? {
            tag::CONFIG_HEADER => WalRecord::ConfigHeader {
                shards: r.get_u32()?,
                seed: r.get_u64()?,
            },
            tag::CREATE => {
                let gid = r.get_u64()?;
                let n = r.get_u32()? as usize;
                let mut members = Vec::with_capacity(n.min(1 << 16));
                for _ in 0..n {
                    members.push(r.get_id()?);
                }
                WalRecord::CreateGroup { gid, members }
            }
            tag::SUBMIT => WalRecord::Submit {
                gid: r.get_u64()?,
                event: get_event(&mut r)?,
            },
            tag::DETACH => WalRecord::Detach(r.get_id()?),
            tag::ATTACH => WalRecord::Attach(r.get_id()?),
            tag::SET_BATTERY => WalRecord::SetBattery {
                user: r.get_id()?,
                capacity_uj: r.get_f64()?,
            },
            tag::SET_LOSS => WalRecord::SetLoss(r.get_f64()?),
            tag::EPOCH_COMMIT => WalRecord::EpochCommit {
                epoch: r.get_u64()?,
            },
            tag::EVICT => WalRecord::Evict {
                cert: r.get_blob()?.to_vec(),
            },
            tag::ADD_SHARD => WalRecord::AddShard {
                shards: r.get_u32()?,
            },
            tag::REMOVE_SHARD => WalRecord::RemoveShard {
                shards: r.get_u32()?,
            },
            tag::MOVE_GROUP => WalRecord::MoveGroup {
                gid: r.get_u64()?,
                to: r.get_u32()?,
            },
            _ => {
                return Err(DecodeError {
                    what: "unknown wal record tag",
                })
            }
        };
        r.expect_end()?;
        Ok((lsn, record))
    }
}

/// Everything a snapshot carries besides the groups themselves.
pub(crate) struct SnapshotState<'a> {
    /// Shard count and master seed of the service that cut the snapshot —
    /// a recovery under a different topology would scatter groups across
    /// different shards and derive different step seeds, so a mismatch is
    /// typed corruption rather than silent divergence.
    pub shards: u32,
    pub seed: u64,
    pub epoch: u64,
    pub next_lsn: u64,
    pub loss: f64,
    /// Live shard-directory bucket count (≥ `shards`, which stays the
    /// *initial* builder topology for the config guard).
    pub dir_shards: u32,
    /// Directory overrides `(gid, shard)`, ascending by gid.
    pub overrides: Vec<(GroupId, u32)>,
    /// Rebalancer hysteresis stamps `(gid, epoch last moved)`, ascending.
    pub last_moved: Vec<(GroupId, u64)>,
    pub detached: Vec<UserId>,
    pub known_dead: Vec<UserId>,
    /// `(user, capacity_uj, spent_uj)` battery cells, ascending by id.
    pub batteries: Vec<(u32, f64, f64)>,
    /// `(gid, state)` for every live group, ascending by id; every state
    /// holds its sealed blob.
    pub groups: Vec<(GroupId, &'a GroupState)>,
    /// `(gid, queued events)` for every non-empty queue, ascending by id.
    pub pending: Vec<(GroupId, &'a [MembershipEvent])>,
    /// Stall-ledger group rows `(gid, consecutive, cumulative, cause)`,
    /// ascending — persisted so a recovered service re-derives the same
    /// eviction decisions from the same streaks.
    pub stall_groups: Vec<(GroupId, u64, u64, StallCause)>,
    /// Stall-ledger member rows `(gid, member, consecutive, cumulative,
    /// cause)`, ascending by `(gid, member)`.
    pub stall_members: Vec<(GroupId, u32, u64, u64, StallCause)>,
    /// Quarantine cells `(member, until_epoch, evictions)`, ascending.
    pub quarantine: Vec<(u32, u64, u32)>,
    /// Encoded blame certificates in issuance order, so a recovery from
    /// a post-eviction snapshot still surfaces the full audit trail.
    pub blame_certs: Vec<Vec<u8>>,
}

/// The owned counterpart [`decode_snapshot`] returns.
pub(crate) struct RestoredState {
    pub shards: u32,
    pub seed: u64,
    pub epoch: u64,
    pub next_lsn: u64,
    pub loss: f64,
    pub dir_shards: u32,
    pub overrides: Vec<(GroupId, u32)>,
    pub last_moved: Vec<(GroupId, u64)>,
    pub detached: Vec<UserId>,
    pub known_dead: Vec<UserId>,
    pub batteries: Vec<(u32, f64, f64)>,
    pub groups: Vec<(GroupId, GroupState)>,
    pub pending: Vec<(GroupId, Vec<MembershipEvent>)>,
    pub stall_groups: Vec<(GroupId, u64, u64, StallCause)>,
    pub stall_members: Vec<(GroupId, u32, u64, u64, StallCause)>,
    pub quarantine: Vec<(u32, u64, u32)>,
    pub blame_certs: Vec<Vec<u8>>,
}

/// Serializes a snapshot. The groups' sessions are already sealed
/// ([`crate::shard::Shard::seal_groups`]); this only copies the blobs.
pub(crate) fn encode_snapshot(state: &SnapshotState<'_>) -> Vec<u8> {
    let mut w = Writer::new();
    w.put_bytes(SNAPSHOT_MAGIC);
    w.put_u32(state.shards).put_u64(state.seed);
    w.put_u64(state.epoch)
        .put_u64(state.next_lsn)
        .put_f64(state.loss);
    w.put_u32(state.dir_shards);
    w.put_u32(state.overrides.len() as u32);
    for &(gid, shard) in &state.overrides {
        w.put_u64(gid).put_u32(shard);
    }
    w.put_u32(state.last_moved.len() as u32);
    for &(gid, epoch) in &state.last_moved {
        w.put_u64(gid).put_u64(epoch);
    }
    w.put_u32(state.detached.len() as u32);
    for u in &state.detached {
        w.put_id(*u);
    }
    w.put_u32(state.known_dead.len() as u32);
    for u in &state.known_dead {
        w.put_id(*u);
    }
    w.put_u32(state.batteries.len() as u32);
    for &(user, capacity, spent) in &state.batteries {
        w.put_u32(user).put_f64(capacity).put_f64(spent);
    }
    w.put_u32(state.groups.len() as u32);
    for (gid, g) in &state.groups {
        let sealed = g
            .cached_seal()
            .expect("snapshot_now seals every group before encoding");
        w.put_u64(*gid);
        put_group(&mut w, g, sealed);
    }
    w.put_u32(state.pending.len() as u32);
    for (gid, events) in &state.pending {
        w.put_u64(*gid).put_u32(events.len() as u32);
        for ev in events.iter() {
            put_event(&mut w, ev);
        }
    }
    w.put_u32(state.stall_groups.len() as u32);
    for &(gid, consecutive, cumulative, cause) in &state.stall_groups {
        w.put_u64(gid)
            .put_u64(consecutive)
            .put_u64(cumulative)
            .put_u8(cause.code());
    }
    w.put_u32(state.stall_members.len() as u32);
    for &(gid, member, consecutive, cumulative, cause) in &state.stall_members {
        w.put_u64(gid)
            .put_u32(member)
            .put_u64(consecutive)
            .put_u64(cumulative)
            .put_u8(cause.code());
    }
    w.put_u32(state.quarantine.len() as u32);
    for &(member, until_epoch, evictions) in &state.quarantine {
        w.put_u32(member).put_u64(until_epoch).put_u32(evictions);
    }
    w.put_u32(state.blame_certs.len() as u32);
    for cert in &state.blame_certs {
        w.put_blob(cert);
    }
    w.finish().to_vec()
}

fn corrupt(what: &'static str) -> StoreError {
    StoreError::Corrupt { what, offset: 0 }
}

/// Deserializes and unseals a snapshot against the recovering service's
/// PKG and envelope key. Any damage — truncation, tag drift, a wrong or
/// stale seal key — is a typed [`StoreError::Corrupt`].
pub(crate) fn decode_snapshot(
    bytes: &[u8],
    config: &StoreConfig,
    pkg: &Pkg,
) -> Result<RestoredState, StoreError> {
    let sealer = config.sealer();
    let mut r = Reader::new(bytes);
    let de = |_: DecodeError| corrupt("snapshot truncated or malformed");
    if r.get_bytes().map_err(de)? != SNAPSHOT_MAGIC {
        return Err(corrupt("snapshot magic mismatch"));
    }
    let shards = r.get_u32().map_err(de)?;
    let seed = r.get_u64().map_err(de)?;
    let epoch = r.get_u64().map_err(de)?;
    let next_lsn = r.get_u64().map_err(de)?;
    let loss = r.get_f64().map_err(de)?;
    if !(0.0..1.0).contains(&loss) {
        return Err(corrupt("snapshot loss out of range"));
    }
    let dir_shards = r.get_u32().map_err(de)?;
    if dir_shards == 0 {
        return Err(corrupt("snapshot directory has zero shards"));
    }
    let mut overrides = Vec::new();
    for _ in 0..r.get_u32().map_err(de)? {
        let gid = r.get_u64().map_err(de)?;
        let shard = r.get_u32().map_err(de)?;
        if shard >= dir_shards {
            return Err(corrupt("snapshot override outside the shard pool"));
        }
        overrides.push((gid, shard));
    }
    let mut last_moved = Vec::new();
    for _ in 0..r.get_u32().map_err(de)? {
        last_moved.push((r.get_u64().map_err(de)?, r.get_u64().map_err(de)?));
    }
    let mut detached = Vec::new();
    for _ in 0..r.get_u32().map_err(de)? {
        detached.push(r.get_id().map_err(de)?);
    }
    let mut known_dead = Vec::new();
    for _ in 0..r.get_u32().map_err(de)? {
        known_dead.push(r.get_id().map_err(de)?);
    }
    let mut batteries = Vec::new();
    for _ in 0..r.get_u32().map_err(de)? {
        batteries.push((
            r.get_u32().map_err(de)?,
            r.get_f64().map_err(de)?,
            r.get_f64().map_err(de)?,
        ));
    }
    let n_groups = r.get_u32().map_err(de)?;
    let mut groups = Vec::with_capacity((n_groups as usize).min(1 << 16));
    for _ in 0..n_groups {
        let gid = r.get_u64().map_err(de)?;
        groups.push((gid, get_group(&mut r, &sealer, pkg)?));
    }
    let n_pending = r.get_u32().map_err(de)?;
    let mut pending = Vec::with_capacity((n_pending as usize).min(1 << 16));
    for _ in 0..n_pending {
        let gid = r.get_u64().map_err(de)?;
        let n = r.get_u32().map_err(de)?;
        let mut events = Vec::with_capacity((n as usize).min(1 << 16));
        for _ in 0..n {
            events.push(get_event(&mut r).map_err(de)?);
        }
        pending.push((gid, events));
    }
    let cause_of =
        |code: u8| StallCause::from_code(code).ok_or_else(|| corrupt("unknown stall cause"));
    let mut stall_groups = Vec::new();
    for _ in 0..r.get_u32().map_err(de)? {
        stall_groups.push((
            r.get_u64().map_err(de)?,
            r.get_u64().map_err(de)?,
            r.get_u64().map_err(de)?,
            cause_of(r.get_u8().map_err(de)?)?,
        ));
    }
    let mut stall_members = Vec::new();
    for _ in 0..r.get_u32().map_err(de)? {
        stall_members.push((
            r.get_u64().map_err(de)?,
            r.get_u32().map_err(de)?,
            r.get_u64().map_err(de)?,
            r.get_u64().map_err(de)?,
            cause_of(r.get_u8().map_err(de)?)?,
        ));
    }
    let mut quarantine = Vec::new();
    for _ in 0..r.get_u32().map_err(de)? {
        quarantine.push((
            r.get_u32().map_err(de)?,
            r.get_u64().map_err(de)?,
            r.get_u32().map_err(de)?,
        ));
    }
    let mut blame_certs = Vec::new();
    for _ in 0..r.get_u32().map_err(de)? {
        blame_certs.push(r.get_blob().map_err(de)?.to_vec());
    }
    r.expect_end()
        .map_err(|_| corrupt("snapshot has trailing bytes"))?;
    Ok(RestoredState {
        shards,
        seed,
        epoch,
        next_lsn,
        loss,
        dir_shards,
        overrides,
        last_moved,
        detached,
        known_dead,
        batteries,
        groups,
        pending,
        stall_groups,
        stall_members,
        quarantine,
        blame_certs,
    })
}

/// Writes one group's `[suite][created_epoch][rekeys][sealed session]`
/// record, the layout both snapshots and handoffs carry.
fn put_group(w: &mut Writer, g: &GroupState, sealed: &[u8]) {
    w.put_u8(g.suite.code())
        .put_u64(g.created_epoch)
        .put_u64(g.rekeys)
        .put_blob(sealed);
}

/// Reads a [`put_group`] record and opens its session. The returned state
/// caches nothing: a blob read back may carry a random IV.
fn get_group(r: &mut Reader<'_>, sealer: &Sealer, pkg: &Pkg) -> Result<GroupState, StoreError> {
    let de = |_: DecodeError| corrupt("sealed group state truncated or malformed");
    let suite = SuiteId::from_code(r.get_u8().map_err(de)?)
        .ok_or_else(|| corrupt("unknown suite code in sealed group state"))?;
    let created_epoch = r.get_u64().map_err(de)?;
    let rekeys = r.get_u64().map_err(de)?;
    let session = sealer.open(r.get_blob().map_err(de)?, pkg)?;
    Ok(GroupState::new(session, suite, created_epoch, rekeys))
}

/// Encodes one group's state for shard-to-shard transit: the record a
/// snapshot carries per group, so every live handoff exercises exactly the
/// portability the snapshot guarantees (and nothing more: no membership
/// replay, no re-keying). `sealed` is the group's sealed session.
pub(crate) fn encode_group_state(g: &GroupState, sealed: &[u8]) -> Vec<u8> {
    let mut w = Writer::new();
    put_group(&mut w, g, sealed);
    w.finish().to_vec()
}

/// Decodes an [`encode_group_state`] record and opens its session. Damage
/// or a wrong store key is typed corruption, exactly as for a snapshot.
pub(crate) fn decode_group_state(
    bytes: &[u8],
    sealer: &Sealer,
    pkg: &Pkg,
) -> Result<GroupState, StoreError> {
    let mut r = Reader::new(bytes);
    let g = get_group(&mut r, sealer, pkg)?;
    r.expect_end()
        .map_err(|_| corrupt("sealed group state has trailing bytes"))?;
    Ok(g)
}

#[cfg(test)]
mod tests {
    use super::*;
    use egka_hash::ChaChaRng;
    use rand::SeedableRng;

    #[test]
    fn wal_record_codec_roundtrips() {
        let records = vec![
            WalRecord::ConfigHeader {
                shards: 8,
                seed: 0xe96a,
            },
            WalRecord::CreateGroup {
                gid: 7,
                members: vec![UserId(0), UserId(1), UserId(9)],
            },
            WalRecord::Submit {
                gid: 7,
                event: MembershipEvent::Join(UserId(4)),
            },
            WalRecord::Submit {
                gid: 7,
                event: MembershipEvent::Leave(UserId(1)),
            },
            WalRecord::Submit {
                gid: 7,
                event: MembershipEvent::MergeWith(12),
            },
            WalRecord::Detach(UserId(3)),
            WalRecord::Attach(UserId(3)),
            WalRecord::SetBattery {
                user: UserId(2),
                capacity_uj: 1234.5,
            },
            WalRecord::SetLoss(0.01),
            WalRecord::EpochCommit { epoch: 42 },
            WalRecord::Evict {
                cert: vec![0xde, 0xad, 0xbe, 0xef],
            },
            WalRecord::AddShard { shards: 9 },
            WalRecord::RemoveShard { shards: 7 },
            WalRecord::MoveGroup { gid: 7, to: 3 },
        ];
        for (i, rec) in records.iter().enumerate() {
            let lsn = 100 + i as u64;
            let (got_lsn, got) = WalRecord::decode(&rec.encode(lsn)).unwrap();
            assert_eq!(got_lsn, lsn);
            assert_eq!(&got, rec);
        }
    }

    #[test]
    fn wal_record_rejects_damage() {
        let payload = WalRecord::EpochCommit { epoch: 9 }.encode(1);
        for cut in 0..payload.len() {
            assert!(WalRecord::decode(&payload[..cut]).is_err(), "cut {cut}");
        }
        let mut extra = payload.clone();
        extra.push(0);
        assert!(WalRecord::decode(&extra).is_err(), "trailing bytes");
        let mut bad_tag = payload;
        bad_tag[9] = 0xFF;
        assert!(WalRecord::decode(&bad_tag).is_err(), "unknown tag");
    }

    /// Stores written before the service moved to one log carry each
    /// `CreateGroup`/`Submit` on its shard's stream (`k + 1`). Such a
    /// store must still recover bit for bit, and its first snapshot must
    /// truncate the leftover `wal.{k}.log` files.
    #[test]
    fn a_store_in_the_per_shard_stream_layout_still_recovers() {
        use crate::KeyService;
        use egka_core::SecurityProfile;
        use egka_store::{wal_records, FileStore, MemStore};

        let pkg = Arc::new(Pkg::setup(
            &mut ChaChaRng::seed_from_u64(0x01d1),
            SecurityProfile::Toy,
        ));
        let builder = |store: Arc<dyn Store>| {
            KeyService::builder()
                .shards(3)
                .seed(0x1a7)
                .store(StoreConfig::new(store).snapshot_every(0))
        };
        let mem = MemStore::new();
        let mut live = builder(Arc::new(mem.clone())).build(Arc::clone(&pkg));
        for g in 0..6u64 {
            let base = g as u32 * 10;
            let members: Vec<UserId> = (base..base + 4).map(UserId).collect();
            live.create_group(g, &members).unwrap();
        }
        for epoch in 0..3u32 {
            for g in 0..6u64 {
                let user = UserId(1000 + epoch * 10 + g as u32);
                live.submit(g, MembershipEvent::Join(user)).unwrap();
            }
            live.tick();
            live.set_loss(0.01 * f64::from(epoch));
        }
        // Pending work at the cut: it must survive the layout change too.
        live.submit(4, MembershipEvent::Join(UserId(77))).unwrap();

        // Re-lay the log out the way the per-shard layout wrote it.
        let dir = std::env::temp_dir().join(format!("egka-old-layout-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let old = FileStore::open(&dir).unwrap();
            for payload in wal_records(&mem).unwrap() {
                let stream = match WalRecord::decode(&payload).unwrap().1 {
                    WalRecord::CreateGroup { gid, .. } | WalRecord::Submit { gid, .. } => {
                        live.shard_of(gid) as u32 + 1
                    }
                    _ => 0,
                };
                old.append_stream(stream, &payload).unwrap();
            }
            assert_eq!(old.wal_streams().unwrap(), vec![0, 1, 2, 3]);
        }

        // Recovery opens fresh handles, as after a restart.
        let old: Arc<dyn Store> = Arc::new(FileStore::open(&dir).unwrap());
        let (mut recovered, _) = builder(Arc::clone(&old)).recover(Arc::clone(&pkg)).unwrap();
        assert_eq!(recovered.epoch(), 3);
        // Same LSN watermark and state, so the two snapshots must be the
        // same bytes (a seal is a function of group id and state).
        live.snapshot_now();
        recovered.snapshot_now();
        assert_eq!(
            old.snapshot_bytes().unwrap(),
            mem.snapshot_bytes().unwrap(),
            "recovered state differs from the live state"
        );
        for stream in 0..4 {
            assert!(
                old.wal_stream_bytes(stream).unwrap().is_empty(),
                "stream {stream}"
            );
        }
        for k in 1..4 {
            let len = std::fs::metadata(dir.join(format!("wal.{k}.log")))
                .unwrap()
                .len();
            assert_eq!(len, 0, "wal.{k}.log truncated");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    fn toy_pkg() -> Arc<Pkg> {
        use egka_core::SecurityProfile;
        Arc::new(Pkg::setup(
            &mut ChaChaRng::seed_from_u64(0x5ea1),
            SecurityProfile::Toy,
        ))
    }

    fn durable(mem: &egka_store::MemStore) -> crate::ServiceBuilder {
        crate::KeyService::builder()
            .shards(2)
            .seed(0x51f)
            .store(StoreConfig::new(Arc::new(mem.clone())).snapshot_every(0))
    }

    fn members(gid: u64, n: u32) -> Vec<UserId> {
        let base = gid as u32 * 10;
        (base..base + n).map(UserId).collect()
    }

    fn state_bytes(session: &GroupSession) -> Vec<u8> {
        let mut w = Writer::new();
        session.encode_state(&mut w);
        w.finish().to_vec()
    }

    /// Six groups, a cut, then two epochs that change only groups 0 and 3.
    fn drive(svc: &mut crate::KeyService) {
        for g in 0..6u64 {
            svc.create_group(g, &members(g, 4)).unwrap();
        }
        svc.snapshot_now();
        for epoch in 0..2u32 {
            for g in [0u64, 3] {
                let user = UserId(1000 + epoch * 10 + g as u32);
                svc.submit(g, MembershipEvent::Join(user)).unwrap();
            }
            svc.tick();
        }
    }

    #[test]
    fn a_warm_snapshot_is_byte_equal_to_a_cold_one() {
        use egka_store::MemStore;
        let pkg = toy_pkg();
        let (warm_mem, cold_mem) = (MemStore::new(), MemStore::new());
        let mut warm = durable(&warm_mem).build(Arc::clone(&pkg));
        let mut cold = durable(&cold_mem).build(Arc::clone(&pkg));
        drive(&mut warm);
        drive(&mut cold);
        // The rekeyed groups dropped their blobs; the others kept theirs.
        assert!(warm.cached_seal(0).is_none() && warm.cached_seal(3).is_none());
        assert!(warm.cached_seal(1).is_some() && warm.cached_seal(5).is_some());
        cold.forget_seals();
        warm.snapshot_now();
        cold.snapshot_now();
        assert_eq!(
            warm_mem.snapshot_bytes().unwrap(),
            cold_mem.snapshot_bytes().unwrap()
        );

        // A recovered service (snapshot plus a replayed tail) caches
        // nothing, and still cuts the live service's bytes.
        warm.submit(1, MembershipEvent::Leave(UserId(11))).unwrap();
        warm.tick();
        let (mut recovered, report) = durable(&warm_mem).recover(Arc::clone(&pkg)).unwrap();
        assert_eq!(report.epochs_replayed, 1);
        assert!(recovered.cached_seal(2).is_none());
        warm.snapshot_now();
        let live = warm_mem.snapshot_bytes().unwrap();
        recovered.snapshot_now();
        assert_eq!(warm_mem.snapshot_bytes().unwrap(), live);
    }

    #[test]
    fn a_rekey_a_merge_and_a_handoff_leave_each_blob_current() {
        use egka_store::MemStore;
        let pkg = toy_pkg();
        let mem = MemStore::new();
        let mut svc = durable(&mem).build(Arc::clone(&pkg));
        for g in 0..3u64 {
            svc.create_group(g, &members(g, 4)).unwrap();
        }
        svc.create_group(3, &members(3, 2)).unwrap();
        svc.snapshot_now();
        let sealer = StoreConfig::new(Arc::new(mem.clone())).sealer();
        let blob = |svc: &crate::KeyService, gid| svc.cached_seal(gid).map(<[u8]>::to_vec);
        let assert_opens = |svc: &crate::KeyService, gid| {
            let opened = sealer.open(svc.cached_seal(gid).unwrap(), &pkg).unwrap();
            assert_eq!(state_bytes(&opened), state_bytes(svc.session(gid).unwrap()));
        };
        let untouched = blob(&svc, 2).expect("every group sealed");

        let before = blob(&svc, 0).expect("sealed");
        svc.submit(0, MembershipEvent::Join(UserId(100))).unwrap();
        svc.tick();
        assert_eq!(blob(&svc, 0), None, "a rekey drops the blob");
        svc.snapshot_now();
        assert_ne!(blob(&svc, 0).unwrap(), before);
        assert_opens(&svc, 0);

        let before = blob(&svc, 0).unwrap();
        svc.submit(0, MembershipEvent::MergeWith(1)).unwrap();
        svc.tick();
        assert!(svc.session(1).is_none(), "group 1 merged into 0");
        assert_eq!(blob(&svc, 0), None, "a merge fold drops the blob");
        svc.snapshot_now();
        assert_ne!(blob(&svc, 0).unwrap(), before);
        assert_opens(&svc, 0);

        let before = blob(&svc, 0).unwrap();
        let to = 1 - svc.shard_of(0);
        svc.move_group(0, to).unwrap();
        assert_eq!(svc.shard_of(0), to);
        assert_eq!(
            blob(&svc, 0).unwrap(),
            before,
            "the handoff reuses the blob"
        );
        assert_opens(&svc, 0);

        svc.submit(3, MembershipEvent::Leave(UserId(30))).unwrap();
        svc.submit(3, MembershipEvent::Leave(UserId(31))).unwrap();
        svc.tick();
        assert!(
            svc.session(3).is_none() && blob(&svc, 3).is_none(),
            "dissolved"
        );
        svc.snapshot_now();
        assert_eq!(blob(&svc, 2).unwrap(), untouched, "group 2 never changed");
        assert_opens(&svc, 2);

        // Without a store a handoff neither reads nor fills the cache.
        let mut bare = crate::KeyService::builder()
            .shards(2)
            .build(Arc::clone(&pkg));
        bare.create_group(0, &members(0, 4)).unwrap();
        let to = 1 - bare.shard_of(0);
        bare.move_group(0, to).unwrap();
        assert_eq!(bare.shard_of(0), to);
        assert!(bare.cached_seal(0).is_none());
    }

    /// Snapshots cut before synthetic IVs sealed each group under a random
    /// IV. The format is unchanged, so they still open, and the recovered
    /// service's next cut is the live service's.
    #[test]
    fn a_snapshot_sealed_with_random_ivs_still_opens() {
        use egka_store::MemStore;
        let pkg = toy_pkg();
        let mem = MemStore::new();
        let mut svc = durable(&mem).build(Arc::clone(&pkg));
        drive(&mut svc);
        svc.submit(4, MembershipEvent::Join(UserId(77))).unwrap();
        svc.snapshot_now();
        let siv = mem.snapshot_bytes().unwrap().unwrap();
        let config = StoreConfig::new(Arc::new(mem.clone()));
        let restored = decode_snapshot(&siv, &config, &pkg).unwrap();

        let envelope = Envelope::from_key_material(&config.seal_key);
        let mut rng = ChaChaRng::seed_from_u64(9);
        let mut groups = restored.groups;
        for (_, g) in &mut groups {
            let sealed = envelope.seal(&mut rng, &state_bytes(g.session()));
            g.cache_seal(sealed.into_boxed_slice());
        }
        let old = encode_snapshot(&SnapshotState {
            shards: restored.shards,
            seed: restored.seed,
            epoch: restored.epoch,
            next_lsn: restored.next_lsn,
            loss: restored.loss,
            dir_shards: restored.dir_shards,
            overrides: restored.overrides,
            last_moved: restored.last_moved,
            detached: restored.detached,
            known_dead: restored.known_dead,
            batteries: restored.batteries,
            groups: groups.iter().map(|(gid, g)| (*gid, g)).collect(),
            pending: restored
                .pending
                .iter()
                .map(|(gid, q)| (*gid, q.as_slice()))
                .collect(),
            stall_groups: restored.stall_groups,
            stall_members: restored.stall_members,
            quarantine: restored.quarantine,
            blame_certs: restored.blame_certs,
        });
        assert_eq!(old.len(), siv.len());
        assert_ne!(old, siv, "random IVs");

        let old_mem = MemStore::new();
        old_mem.install_snapshot(&old).unwrap();
        let (mut recovered, report) = durable(&old_mem).recover(Arc::clone(&pkg)).unwrap();
        assert_eq!(report.groups_recovered, 6);
        for gid in svc.group_ids() {
            assert_eq!(
                state_bytes(recovered.session(gid).unwrap()),
                state_bytes(svc.session(gid).unwrap())
            );
        }
        recovered.snapshot_now();
        svc.snapshot_now();
        assert_eq!(
            old_mem.snapshot_bytes().unwrap(),
            mem.snapshot_bytes().unwrap()
        );
    }

    #[test]
    fn wal_evict_record_rejects_damage() {
        let payload = WalRecord::Evict { cert: vec![7; 16] }.encode(3);
        for cut in 0..payload.len() {
            assert!(WalRecord::decode(&payload[..cut]).is_err(), "cut {cut}");
        }
        let mut extra = payload;
        extra.push(0);
        assert!(WalRecord::decode(&extra).is_err(), "trailing bytes");
    }
}
