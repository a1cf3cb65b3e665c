//! The in-memory backend: hermetic tests, byte-identical persistence.

use std::sync::{Arc, Mutex};

use crate::wal::frame;
use crate::{Store, StoreError, POISONED};

#[derive(Debug, Default)]
struct MemState {
    /// Stream 0 — the control log every store has.
    wal: Vec<u8>,
    /// Streams > 0, keyed by stream id; absent means empty.
    streams: std::collections::BTreeMap<u32, Vec<u8>>,
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
    /// stream and watch recovery cope.
    pub fn with_raw(wal: Vec<u8>, snapshot: Option<Vec<u8>>) -> Self {
        MemStore {
            inner: Arc::new(Mutex::new(MemState {
                wal,
                streams: std::collections::BTreeMap::new(),
                snapshot: snapshot.map(|payload| frame(&payload)),
                syncs: 0,
            })),
        }
    }

    /// Replaces one stream's raw bytes (framing included) — the
    /// multi-stream torture constructor. Stream 0 aliases the main WAL.
    pub fn set_raw_stream(&self, stream: u32, bytes: Vec<u8>) {
        let mut inner = self.inner.lock().expect(POISONED);
        if stream == 0 {
            inner.wal = bytes;
        } else {
            inner.streams.insert(stream, bytes);
        }
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
        inner.wal = wal;
        inner.snapshot = framed_snapshot;
    }
}

impl Store for MemStore {
    fn append(&self, payload: &[u8]) -> Result<(), StoreError> {
        let mut inner = self.inner.lock().expect(POISONED);
        inner.wal.extend_from_slice(&frame(payload));
        inner.syncs += 1;
        Ok(())
    }

    fn wal_bytes(&self) -> Result<Vec<u8>, StoreError> {
        Ok(self.inner.lock().expect(POISONED).wal.clone())
    }

    fn append_stream(&self, stream: u32, payload: &[u8]) -> Result<(), StoreError> {
        if stream == 0 {
            return self.append(payload);
        }
        let mut inner = self.inner.lock().expect(POISONED);
        let buf = inner.streams.entry(stream).or_default();
        buf.extend_from_slice(&frame(payload));
        inner.syncs += 1;
        Ok(())
    }

    fn wal_stream_bytes(&self, stream: u32) -> Result<Vec<u8>, StoreError> {
        if stream == 0 {
            return self.wal_bytes();
        }
        Ok(self
            .inner
            .lock()
            .expect(POISONED)
            .streams
            .get(&stream)
            .cloned()
            .unwrap_or_default())
    }

    fn wal_streams(&self) -> Result<Vec<u32>, StoreError> {
        let inner = self.inner.lock().expect(POISONED);
        let mut ids = vec![0];
        ids.extend(
            inner
                .streams
                .iter()
                .filter(|(_, b)| !b.is_empty())
                .map(|(id, _)| *id),
        );
        Ok(ids)
    }

    fn install_snapshot(&self, snapshot: &[u8]) -> Result<(), StoreError> {
        let mut inner = self.inner.lock().expect(POISONED);
        inner.snapshot = Some(frame(snapshot));
        inner.wal.clear();
        inner.streams.clear();
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
