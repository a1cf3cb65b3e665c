//! The in-memory backend: hermetic tests, byte-identical persistence.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use crate::wal::{frame, scan, Tail};
use crate::{Store, StoreError, POISONED};

/// One stream's bytes, and how much of them a power loss would keep.
#[derive(Debug, Default)]
struct Log {
    bytes: Vec<u8>,
    /// Length of the prefix a durability barrier has covered.
    synced: usize,
}

impl Log {
    /// A log whose every byte counts as durable (raw torture input).
    fn durable(bytes: Vec<u8>) -> Self {
        Log {
            synced: bytes.len(),
            bytes,
        }
    }
}

#[derive(Debug, Default)]
struct MemState {
    /// Every stream's log by id, stream 0 included; absent means empty.
    logs: BTreeMap<u32, Log>,
    snapshot: Option<Vec<u8>>,
    syncs: u64,
}

/// A [`Store`] that lives in memory.
///
/// It persists the *same bytes* a [`crate::FileStore`] would write to
/// disk, so torture tests (truncate the log at an arbitrary byte, flip a
/// bit) exercise exactly the framing a crash would tear — without touching
/// the filesystem. Cloning shares the underlying state, the way two
/// openings of one directory would.
///
/// Each log remembers how far its last durability barrier reached, so a
/// test can also model a power loss ([`MemStore::lose_unsynced`]): what
/// [`Store::append_unsynced`] wrote since the last [`Store::sync`] is gone.
#[derive(Clone, Debug, Default)]
pub struct MemStore {
    inner: Arc<Mutex<MemState>>,
}

impl MemStore {
    /// An empty store.
    pub fn new() -> Self {
        MemStore::default()
    }

    /// A store pre-loaded with raw WAL bytes and an optional raw snapshot
    /// *payload* — the torture-test constructor: hand it a damaged byte
    /// stream and watch recovery cope. Like [`crate::FileStore::open`], it
    /// cuts a torn tail off the WAL, so later appends start on a frame
    /// boundary.
    ///
    /// # Panics
    /// Panics if the snapshot payload is empty (no frame holds one).
    pub fn with_raw(mut wal: Vec<u8>, snapshot: Option<Vec<u8>>) -> Self {
        if let Ok((_, Tail::Torn { torn_at })) = scan(&wal) {
            wal.truncate(torn_at);
        }
        let store = MemStore::new();
        let framed = snapshot.map(|payload| frame(&payload).expect("non-empty snapshot payload"));
        store.set_raw(wal, framed);
        store
    }

    /// Replaces one stream's raw bytes (framing included) — the
    /// multi-stream torture constructor. Stream 0 is the main WAL.
    pub fn set_raw_stream(&self, stream: u32, bytes: Vec<u8>) {
        let mut inner = self.inner.lock().expect(POISONED);
        inner.logs.insert(stream, Log::durable(bytes));
    }

    /// The raw snapshot bytes as persisted (framing included), for tests
    /// that want to damage them.
    pub fn raw_snapshot(&self) -> Option<Vec<u8>> {
        self.inner.lock().expect(POISONED).snapshot.clone()
    }

    /// Replaces the persisted bytes wholesale (framing and all) — the
    /// other half of the torture-test API.
    pub fn set_raw(&self, wal: Vec<u8>, framed_snapshot: Option<Vec<u8>>) {
        let mut inner = self.inner.lock().expect(POISONED);
        inner.logs.insert(0, Log::durable(wal));
        inner.snapshot = framed_snapshot;
    }

    /// Models a power loss: every log drops what was written after its
    /// last durability barrier. (A process crash loses nothing — the
    /// bytes already reached the backend.)
    #[doc(hidden)]
    pub fn lose_unsynced(&self) {
        let mut inner = self.inner.lock().expect(POISONED);
        for log in inner.logs.values_mut() {
            log.bytes.truncate(log.synced);
        }
    }
}

impl Store for MemStore {
    fn append(&self, payload: &[u8]) -> Result<(), StoreError> {
        self.append_unsynced(payload)?;
        self.sync()
    }

    fn append_unsynced(&self, payload: &[u8]) -> Result<(), StoreError> {
        let framed = frame(payload)?;
        let mut inner = self.inner.lock().expect(POISONED);
        let log = inner.logs.entry(0).or_default();
        log.bytes.extend_from_slice(&framed);
        Ok(())
    }

    fn sync(&self) -> Result<(), StoreError> {
        let mut inner = self.inner.lock().expect(POISONED);
        for log in inner.logs.values_mut() {
            log.synced = log.bytes.len();
        }
        inner.syncs += 1;
        Ok(())
    }

    fn wal_bytes(&self) -> Result<Vec<u8>, StoreError> {
        self.wal_stream_bytes(0)
    }

    fn append_stream(&self, stream: u32, payload: &[u8]) -> Result<(), StoreError> {
        if stream == 0 {
            return self.append(payload);
        }
        let framed = frame(payload)?;
        let mut inner = self.inner.lock().expect(POISONED);
        let log = inner.logs.entry(stream).or_default();
        log.bytes.extend_from_slice(&framed);
        log.synced = log.bytes.len();
        inner.syncs += 1;
        Ok(())
    }

    fn wal_stream_bytes(&self, stream: u32) -> Result<Vec<u8>, StoreError> {
        let inner = self.inner.lock().expect(POISONED);
        Ok(inner
            .logs
            .get(&stream)
            .map(|log| log.bytes.clone())
            .unwrap_or_default())
    }

    fn wal_streams(&self) -> Result<Vec<u32>, StoreError> {
        let inner = self.inner.lock().expect(POISONED);
        let mut ids = vec![0];
        ids.extend(
            inner
                .logs
                .iter()
                .filter(|(&id, log)| id > 0 && !log.bytes.is_empty())
                .map(|(&id, _)| id),
        );
        Ok(ids)
    }

    fn install_snapshot(&self, snapshot: &[u8]) -> Result<(), StoreError> {
        let framed = frame(snapshot)?;
        let mut inner = self.inner.lock().expect(POISONED);
        inner.snapshot = Some(framed);
        inner.logs.clear();
        inner.syncs += 1;
        Ok(())
    }

    fn snapshot_bytes(&self) -> Result<Option<Vec<u8>>, StoreError> {
        let inner = self.inner.lock().expect(POISONED);
        inner
            .snapshot
            .as_deref()
            .map(crate::unframe_snapshot)
            .transpose()
    }

    fn sync_count(&self) -> u64 {
        self.inner.lock().expect(POISONED).syncs
    }
}
