//! # egka-store — durable group state
//!
//! The service layer's groups outlive any single controller process; this
//! crate is where their state survives. It provides:
//!
//! * a **write-ahead log** ([`wal`]): append-only, length-prefixed and
//!   CRC-checksummed records. The service appends every state-changing
//!   command (group creations, membership events, power events) and an
//!   *epoch commit* record after every applied rekey epoch, all to one
//!   log;
//! * **group commit**: a record can be written without a durability
//!   barrier ([`Store::append_unsynced`]) and made durable later by one
//!   barrier ([`Store::sync`], or the next durable [`Store::append`]).
//!   The service writes membership events that way, so an epoch of many
//!   events costs one fsync, paid by its commit record;
//! * **compacting snapshots**: periodically the service serializes all
//!   per-shard group state (membership, suite, epoch, sealed session-key
//!   material, battery ledger) and installs it atomically, truncating the
//!   log — recovery then replays snapshot + tail instead of the whole
//!   history;
//! * the [`Store`] trait with two backends: [`MemStore`] (hermetic tests,
//!   byte-identical to what the file backend persists) and [`FileStore`]
//!   (a directory with `wal.log` + `snapshot.bin`; a durable append or a
//!   sync is one `fdatasync`).
//!
//! The crate deals in *bytes*; what the records and snapshots mean is the
//! service layer's business (`egka_service`). That split keeps the torture
//! tests here independent of protocol state, and keeps this crate at the
//! bottom of the dependency stack.
//!
//! ## Recovery contract
//!
//! * A **torn tail** (crash mid-append) is not an error: the unfinished
//!   record never happened, and recovery sees a clean prefix.
//! * **Corruption is typed**: any complete record or snapshot whose
//!   checksum fails surfaces as [`StoreError::Corrupt`] — recovery either
//!   reconstructs a strict prefix of committed epochs or reports the
//!   damage; it never panics and never fabricates state.
//! * **A power loss drops the unsynced tail**: records written by
//!   [`Store::append_unsynced`] since the last barrier may be gone after
//!   an OS or power failure (never after a process crash). Everything
//!   before the last barrier survives.
//!
//! ```
//! use egka_store::{wal_records, MemStore, Store};
//!
//! let store = MemStore::new();
//! store.append_unsynced(b"event 1").unwrap();
//! store.append_unsynced(b"event 2").unwrap();
//! store.append(b"commit").unwrap(); // one barrier covers all three
//! store.append_unsynced(b"event 3").unwrap();
//! assert_eq!(store.sync_count(), 1);
//!
//! // A power loss keeps what the barrier covered and nothing after it.
//! store.lose_unsynced();
//! assert_eq!(
//!     wal_records(&store).unwrap(),
//!     vec![b"event 1".to_vec(), b"event 2".to_vec(), b"commit".to_vec()]
//! );
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod wal;

mod file;
mod mem;

pub use file::FileStore;
pub use mem::MemStore;
pub use wal::{crc32, frame, scan, Tail};

/// `lock` fails only after a thread panicked while holding the lock,
/// leaving its update half done: a bug, not a state to recover.
pub(crate) const POISONED: &str = "a thread panicked while holding a store lock";

/// Typed persistence failures.
#[derive(Debug)]
pub enum StoreError {
    /// The underlying medium failed (filesystem errors; the in-memory
    /// backend never produces this).
    Io(std::io::Error),
    /// A checksummed structure (WAL record or snapshot) failed
    /// verification — the bytes are damaged, not merely truncated.
    Corrupt {
        /// What failed to verify.
        what: &'static str,
        /// Byte offset of the damaged structure within its stream.
        offset: u64,
    },
    /// An append or a snapshot install was handed an empty payload. No
    /// frame holds one: it would read back as a zero-filled tail.
    EmptyRecord,
}

impl core::fmt::Display for StoreError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "store io: {e}"),
            StoreError::Corrupt { what, offset } => {
                write!(f, "store corrupt at byte {offset}: {what}")
            }
            StoreError::EmptyRecord => write!(f, "store refuses an empty record"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

/// Durable backing for one service's WAL + snapshot.
///
/// Implementations are internally synchronized (`&self` methods): the
/// service holds the store behind an `Arc` and appends from its
/// coordinator thread, while tooling may read concurrently.
///
/// ## Durability
///
/// [`Store::append`] returns only once the record is durable — the
/// write-ahead guarantee. [`Store::append_unsynced`] hands the record to
/// the backend without a barrier, and [`Store::sync`] is the barrier: it
/// makes every earlier write durable. `append` is `append_unsynced`
/// followed by `sync`, so a durable append also covers every unsynced
/// record before it. A backend that does not override the pair keeps
/// every append durable (`append_unsynced` defaults to `append`, `sync`
/// to a no-op).
///
/// ## Streams
///
/// The WAL is a family of independent append-only **streams**, addressed
/// by a `u32` id. Stream 0 is the default (and what the stream-oblivious
/// [`Store::append`] / [`Store::wal_bytes`] pair addresses); the service
/// layer writes every record there. Stores written by its earlier layout
/// also hold one stream per shard (`k + 1` for shard `k`). Each stream
/// has its own torn-tail contract (a clean prefix per stream); global
/// ordering is the service layer's business — its records carry LSNs and
/// recovery merges the streams by LSN. Backends that ignore the stream id
/// (the default trait methods) still satisfy the contract: everything
/// lands on one log, merged order equals append order.
pub trait Store: Send + Sync {
    /// Appends one record (framing it) to stream 0 and makes it, and every
    /// record written before it, durable before returning — the
    /// write-ahead guarantee. Equivalent to [`Store::append_stream`] on
    /// stream 0.
    fn append(&self, payload: &[u8]) -> Result<(), StoreError>;

    /// Appends one record (framing it) to stream 0 without a durability
    /// barrier: a process crash keeps it, a power loss may drop it until
    /// the next [`Store::sync`] or [`Store::append`]. The default is the
    /// durable [`Store::append`].
    fn append_unsynced(&self, payload: &[u8]) -> Result<(), StoreError> {
        self.append(payload)
    }

    /// Makes every earlier write durable — one barrier. The default does
    /// nothing: a backend whose appends are all durable has nothing left
    /// to sync.
    fn sync(&self) -> Result<(), StoreError> {
        Ok(())
    }

    /// The raw WAL byte stream, exactly as persisted (framing included).
    /// Equivalent to [`Store::wal_stream_bytes`] on stream 0.
    fn wal_bytes(&self) -> Result<Vec<u8>, StoreError>;

    /// Appends one record to the given stream, durable before returning.
    /// The default implementation folds every stream onto stream 0 — a
    /// single-log backend is a valid (if serialized) multi-stream store.
    fn append_stream(&self, stream: u32, payload: &[u8]) -> Result<(), StoreError> {
        let _ = stream;
        self.append(payload)
    }

    /// The raw bytes of one stream (framing included); empty for a stream
    /// never appended to.
    fn wal_stream_bytes(&self, stream: u32) -> Result<Vec<u8>, StoreError> {
        if stream == 0 {
            self.wal_bytes()
        } else {
            Ok(Vec::new())
        }
    }

    /// Every stream id holding persisted bytes, ascending. Recovery walks
    /// this set and merges the decoded records by LSN.
    fn wal_streams(&self) -> Result<Vec<u32>, StoreError> {
        Ok(vec![0])
    }

    /// Atomically replaces the snapshot with `snapshot` (framed +
    /// checksummed by the implementation) and truncates **every** WAL
    /// stream — the compaction point. Durable before returning.
    fn install_snapshot(&self, snapshot: &[u8]) -> Result<(), StoreError>;

    /// The last installed snapshot's payload, if any, checksum-verified.
    fn snapshot_bytes(&self) -> Result<Option<Vec<u8>>, StoreError>;

    /// How many durability barriers (fsyncs, or their in-memory
    /// equivalent) this store has performed — surfaced in service metrics.
    fn sync_count(&self) -> u64;
}

impl<T: Store + ?Sized> Store for std::sync::Arc<T> {
    fn append(&self, payload: &[u8]) -> Result<(), StoreError> {
        (**self).append(payload)
    }

    fn append_unsynced(&self, payload: &[u8]) -> Result<(), StoreError> {
        (**self).append_unsynced(payload)
    }

    fn sync(&self) -> Result<(), StoreError> {
        (**self).sync()
    }

    fn wal_bytes(&self) -> Result<Vec<u8>, StoreError> {
        (**self).wal_bytes()
    }

    fn append_stream(&self, stream: u32, payload: &[u8]) -> Result<(), StoreError> {
        (**self).append_stream(stream, payload)
    }

    fn wal_stream_bytes(&self, stream: u32) -> Result<Vec<u8>, StoreError> {
        (**self).wal_stream_bytes(stream)
    }

    fn wal_streams(&self) -> Result<Vec<u32>, StoreError> {
        (**self).wal_streams()
    }

    fn install_snapshot(&self, snapshot: &[u8]) -> Result<(), StoreError> {
        (**self).install_snapshot(snapshot)
    }

    fn snapshot_bytes(&self) -> Result<Option<Vec<u8>>, StoreError> {
        (**self).snapshot_bytes()
    }

    fn sync_count(&self) -> u64 {
        (**self).sync_count()
    }
}

/// A [`Store`] decorator that reports append, sync and snapshot-install
/// spans into an [`egka_trace::Tracer`].
///
/// The store has no virtual clock of its own, so spans are stamped on a
/// per-store operation counter (one tick per call) on the dedicated store
/// pid lane — ordering and durability structure are what a trace reader
/// wants here, not durations.
pub struct TracedStore<S> {
    inner: S,
    tracer: egka_trace::Tracer,
    seq: std::sync::atomic::AtomicU64,
}

impl<S: Store> TracedStore<S> {
    /// Wraps `inner`, reporting into `tracer`.
    pub fn new(inner: S, tracer: egka_trace::Tracer) -> Self {
        TracedStore {
            inner,
            tracer,
            seq: std::sync::atomic::AtomicU64::new(0),
        }
    }

    /// The wrapped store.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    fn tick(&self) -> u64 {
        use egka_trace::SWEEP_NS;
        self.seq.fetch_add(1, std::sync::atomic::Ordering::Relaxed) * SWEEP_NS
    }

    fn span<T>(
        &self,
        name: &'static str,
        bytes: u64,
        op: impl FnOnce(&S) -> Result<T, StoreError>,
    ) -> Result<T, StoreError> {
        use egka_trace::{Event, Payload, Phase, CONTROL_TID, STORE_PID};
        let start = self.tick();
        self.tracer.emit(
            Event::new(Phase::Begin, start, STORE_PID, CONTROL_TID, name)
                .with(Payload::Io { bytes }),
        );
        let out = op(&self.inner);
        self.tracer.emit(
            Event::new(Phase::End, self.tick(), STORE_PID, CONTROL_TID, name)
                .with(Payload::Io { bytes }),
        );
        out
    }
}

impl<S: Store> Store for TracedStore<S> {
    fn append(&self, payload: &[u8]) -> Result<(), StoreError> {
        self.span("store.append", payload.len() as u64, |s| s.append(payload))
    }

    fn append_unsynced(&self, payload: &[u8]) -> Result<(), StoreError> {
        self.span("store.append", payload.len() as u64, |s| {
            s.append_unsynced(payload)
        })
    }

    fn sync(&self) -> Result<(), StoreError> {
        self.span("store.sync", 0, S::sync)
    }

    fn wal_bytes(&self) -> Result<Vec<u8>, StoreError> {
        self.inner.wal_bytes()
    }

    fn append_stream(&self, stream: u32, payload: &[u8]) -> Result<(), StoreError> {
        self.span("store.append", payload.len() as u64, |s| {
            s.append_stream(stream, payload)
        })
    }

    fn wal_stream_bytes(&self, stream: u32) -> Result<Vec<u8>, StoreError> {
        self.inner.wal_stream_bytes(stream)
    }

    fn wal_streams(&self) -> Result<Vec<u32>, StoreError> {
        self.inner.wal_streams()
    }

    fn install_snapshot(&self, snapshot: &[u8]) -> Result<(), StoreError> {
        self.span("store.snapshot_install", snapshot.len() as u64, |s| {
            s.install_snapshot(snapshot)
        })
    }

    fn snapshot_bytes(&self) -> Result<Option<Vec<u8>>, StoreError> {
        self.inner.snapshot_bytes()
    }

    fn sync_count(&self) -> u64 {
        self.inner.sync_count()
    }
}

/// Decodes a store's full WAL into complete record payloads (owned), using
/// the [`wal::scan`] prefix/corrupt contract. Stream 0 only — see
/// [`wal_stream_records`] for the per-stream view.
pub fn wal_records(store: &dyn Store) -> Result<Vec<Vec<u8>>, StoreError> {
    let bytes = store.wal_bytes()?;
    let (records, _tail) = wal::scan(&bytes)?;
    Ok(records.into_iter().map(<[u8]>::to_vec).collect())
}

/// Decodes one stream's WAL into complete record payloads (owned), with
/// the same clean-prefix torn-tail contract as [`wal_records`].
pub fn wal_stream_records(store: &dyn Store, stream: u32) -> Result<Vec<Vec<u8>>, StoreError> {
    let bytes = store.wal_stream_bytes(stream)?;
    let (records, _tail) = wal::scan(&bytes)?;
    Ok(records.into_iter().map(<[u8]>::to_vec).collect())
}

/// Verifies and unwraps a persisted snapshot (exactly one [`wal::frame`]).
///
/// Unlike the log, a snapshot has no useful "clean prefix": it is all or
/// nothing, so a truncated or damaged snapshot is [`StoreError::Corrupt`].
pub(crate) fn unframe_snapshot(bytes: &[u8]) -> Result<Vec<u8>, StoreError> {
    let (records, tail) = wal::scan(bytes)?;
    match (records.as_slice(), tail) {
        ([payload], Tail::Clean) => Ok(payload.to_vec()),
        _ => Err(StoreError::Corrupt {
            what: "snapshot is not exactly one intact frame",
            offset: 0,
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exercise(store: &dyn Store) {
        store.append(b"alpha").unwrap();
        store.append(b"beta").unwrap();
        assert_eq!(
            wal_records(store).unwrap(),
            vec![b"alpha".to_vec(), b"beta".to_vec()]
        );
        assert!(store.snapshot_bytes().unwrap().is_none());

        store.install_snapshot(b"state@2").unwrap();
        assert_eq!(store.snapshot_bytes().unwrap().unwrap(), b"state@2");
        assert!(
            wal_records(store).unwrap().is_empty(),
            "compaction truncates"
        );

        store.append(b"gamma").unwrap();
        assert_eq!(wal_records(store).unwrap(), vec![b"gamma".to_vec()]);
        assert_eq!(store.snapshot_bytes().unwrap().unwrap(), b"state@2");
        assert!(store.sync_count() >= 4);
    }

    fn exercise_streams(store: &dyn Store) {
        store.append_stream(0, b"ctl-1").unwrap();
        store.append_stream(3, b"s3-a").unwrap();
        store.append_stream(1, b"s1-a").unwrap();
        store.append_stream(3, b"s3-b").unwrap();

        // Streams are independent: each sees only its own records.
        assert_eq!(wal_records(store).unwrap(), vec![b"ctl-1".to_vec()]);
        assert_eq!(
            wal_stream_records(store, 0).unwrap(),
            vec![b"ctl-1".to_vec()]
        );
        assert_eq!(
            wal_stream_records(store, 1).unwrap(),
            vec![b"s1-a".to_vec()]
        );
        assert_eq!(
            wal_stream_records(store, 3).unwrap(),
            vec![b"s3-a".to_vec(), b"s3-b".to_vec()]
        );
        assert!(wal_stream_records(store, 2).unwrap().is_empty());
        assert_eq!(store.wal_streams().unwrap(), vec![0, 1, 3]);

        // Compaction truncates every stream, not just stream 0.
        store.install_snapshot(b"state@streams").unwrap();
        assert!(wal_records(store).unwrap().is_empty());
        assert!(wal_stream_records(store, 1).unwrap().is_empty());
        assert!(wal_stream_records(store, 3).unwrap().is_empty());

        store.append_stream(1, b"s1-post").unwrap();
        assert_eq!(
            wal_stream_records(store, 1).unwrap(),
            vec![b"s1-post".to_vec()]
        );
    }

    /// Unsynced appends read back at once and take no barrier; one sync,
    /// or one durable append, covers every one of them.
    fn exercise_group_commit(store: &dyn Store) {
        let (before, records) = (store.sync_count(), wal_records(store).unwrap().len());
        for i in 0..5u8 {
            store.append_unsynced(&[i]).unwrap();
        }
        assert_eq!(store.sync_count(), before, "no barrier per record");
        let read = wal_records(store).unwrap().len();
        assert_eq!(read, records + 5, "readers see them at once");
        store.append(b"commit").unwrap();
        assert_eq!(store.sync_count(), before + 1, "one barrier per commit");
        store.sync().unwrap();
        assert_eq!(store.sync_count(), before + 2);
        assert_eq!(wal_records(store).unwrap().len(), records + 6);
    }

    #[test]
    fn mem_store_contract() {
        exercise(&MemStore::new());
    }

    #[test]
    fn group_commit_takes_one_barrier_on_every_backend_and_wrapper() {
        exercise_group_commit(&MemStore::new());
        let (cfg, ring) = egka_trace::TraceConfig::ring(1 << 10);
        exercise_group_commit(&TracedStore::new(
            MemStore::new(),
            egka_trace::Tracer::from(cfg),
        ));
        egka_trace::export::validate(&ring.events()).expect("balanced spans");
        // The service's shape: a backend behind `Arc<dyn Store>`, itself
        // wrapped for tracing. A wrapper that forgot to forward the pair
        // would fall back to the durable default and fail the count.
        let dir = std::env::temp_dir().join(format!("egka-store-gc-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let file: std::sync::Arc<dyn Store> = std::sync::Arc::new(FileStore::open(&dir).unwrap());
        exercise_group_commit(&file);
        exercise_group_commit(&TracedStore::new(
            std::sync::Arc::clone(&file),
            egka_trace::Tracer::default(),
        ));
        drop(file);
        let reopened = FileStore::open(&dir).unwrap();
        assert_eq!(wal_records(&reopened).unwrap().len(), 12);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_store_without_the_pair_keeps_every_append_durable() {
        struct Durable(MemStore);
        impl Store for Durable {
            fn append(&self, payload: &[u8]) -> Result<(), StoreError> {
                self.0.append(payload)
            }
            fn wal_bytes(&self) -> Result<Vec<u8>, StoreError> {
                self.0.wal_bytes()
            }
            fn install_snapshot(&self, snapshot: &[u8]) -> Result<(), StoreError> {
                self.0.install_snapshot(snapshot)
            }
            fn snapshot_bytes(&self) -> Result<Option<Vec<u8>>, StoreError> {
                self.0.snapshot_bytes()
            }
            fn sync_count(&self) -> u64 {
                self.0.sync_count()
            }
        }
        let store = Durable(MemStore::new());
        store.append_unsynced(b"a").unwrap();
        store.sync().unwrap();
        assert_eq!(store.sync_count(), 1, "the default append_unsynced syncs");
        store.0.lose_unsynced();
        assert_eq!(wal_records(&store).unwrap(), vec![b"a".to_vec()]);
    }

    #[test]
    fn mem_store_power_loss_drops_only_the_unsynced_tail() {
        let store = MemStore::new();
        store.append(b"durable").unwrap();
        store.append_stream(2, b"old layout").unwrap();
        store.append_unsynced(b"lost 1").unwrap();
        store.append_unsynced(b"lost 2").unwrap();
        store.lose_unsynced();
        assert_eq!(wal_records(&store).unwrap(), vec![b"durable".to_vec()]);
        assert_eq!(
            wal_stream_records(&store, 2).unwrap(),
            vec![b"old layout".to_vec()]
        );
        // Raw torture bytes count as durable, and a sync covers the tail.
        store.set_raw_stream(0, frame(b"raw").unwrap());
        store.append_unsynced(b"kept").unwrap();
        store.sync().unwrap();
        store.append_unsynced(b"lost").unwrap();
        store.lose_unsynced();
        assert_eq!(
            wal_records(&store).unwrap(),
            vec![b"raw".to_vec(), b"kept".to_vec()]
        );
    }

    #[test]
    fn mem_store_stream_contract() {
        exercise_streams(&MemStore::new());
    }

    #[test]
    fn traced_store_stream_contract() {
        let (cfg, ring) = egka_trace::TraceConfig::ring(1 << 10);
        let traced = TracedStore::new(MemStore::new(), egka_trace::Tracer::from(cfg));
        exercise_streams(&traced);
        egka_trace::export::validate(&ring.events()).expect("balanced spans");
    }

    #[test]
    fn file_store_stream_contract_and_reopen() {
        let dir =
            std::env::temp_dir().join(format!("egka-store-streams-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        exercise_streams(&FileStore::open(&dir).unwrap());
        // Reopening sees the post-compaction stream state and truncates
        // streams it has never opened a handle for on the next snapshot.
        let reopened = FileStore::open(&dir).unwrap();
        assert_eq!(
            wal_stream_records(&reopened, 1).unwrap(),
            vec![b"s1-post".to_vec()]
        );
        assert_eq!(reopened.wal_streams().unwrap(), vec![0, 1, 3]);
        reopened.install_snapshot(b"state@reopen").unwrap();
        assert!(wal_stream_records(&reopened, 1).unwrap().is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn traced_store_contract_and_spans() {
        let (cfg, ring) = egka_trace::TraceConfig::ring(1 << 10);
        let traced = TracedStore::new(MemStore::new(), egka_trace::Tracer::from(cfg));
        exercise(&traced);
        let evs = ring.events();
        egka_trace::export::validate(&evs).expect("balanced spans");
        let appends = evs
            .iter()
            .filter(|e| e.name == "store.append" && e.phase == egka_trace::Phase::Begin)
            .count();
        assert_eq!(appends, 3, "alpha, beta, gamma");
        assert!(evs.iter().any(|e| e.name == "store.snapshot_install"));
        assert!(evs.iter().all(|e| e.pid == egka_trace::STORE_PID));
    }

    #[test]
    fn opening_a_store_cuts_a_torn_tail() {
        let dir = std::env::temp_dir().join(format!("egka-store-torn-{}", std::process::id()));
        let committed = frame(b"committed").unwrap();
        let partial = frame(b"in flight").unwrap()[..6].to_vec();
        let expect = vec![b"committed".to_vec(), b"next".to_vec()];
        for tail in [vec![0u8; 4096], partial] {
            let log = [committed.clone(), tail].concat();
            let mem = MemStore::with_raw(log.clone(), None);
            assert_eq!(mem.wal_bytes().unwrap(), committed);
            mem.append(b"next").unwrap();
            assert_eq!(wal_records(&mem).unwrap(), expect);

            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).unwrap();
            std::fs::write(dir.join("wal.log"), &log).unwrap();
            let store = FileStore::open(&dir).unwrap();
            assert_eq!(store.wal_bytes().unwrap(), committed);
            store.append(b"next").unwrap();
            drop(store);
            assert_eq!(
                wal_records(&FileStore::open(&dir).unwrap()).unwrap(),
                expect
            );
        }
        // A damaged log stays as it is, for recovery to report.
        let mut damaged = committed.clone();
        *damaged.last_mut().unwrap() ^= 1;
        let mem = MemStore::with_raw(damaged.clone(), None);
        assert_eq!(mem.wal_bytes().unwrap(), damaged);
        std::fs::write(dir.join("wal.log"), &damaged).unwrap();
        assert_eq!(FileStore::open(&dir).unwrap().wal_bytes().unwrap(), damaged);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn file_store_contract() {
        let dir = std::env::temp_dir().join(format!("egka-store-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        exercise(&FileStore::open(&dir).unwrap());
        // Reopening sees the same durable state.
        let reopened = FileStore::open(&dir).unwrap();
        assert_eq!(wal_records(&reopened).unwrap(), vec![b"gamma".to_vec()]);
        assert_eq!(reopened.snapshot_bytes().unwrap().unwrap(), b"state@2");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
