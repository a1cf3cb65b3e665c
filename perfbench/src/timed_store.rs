//! A [`Store`] decorator that times and forwards every call.
//!
//! The traced run wraps the durable backend in [`TimedStore`] so the
//! store layer is measured from outside: every call is forwarded
//! unchanged (the bytes the service persists and reads back are exactly
//! the backend's) and its wall time and payload size are booked.

use std::sync::Mutex;
use std::time::Instant;

use egka_store::{Store, StoreError};

/// What the wrapped store did, accumulated since the last
/// [`TimedStore::take`].
#[derive(Clone, Debug, Default)]
pub struct StoreTimes {
    /// Wall time of each append (any stream), microseconds.
    pub append_us: Vec<f64>,
    /// Payload bytes appended.
    pub append_bytes: u64,
    /// Wall time of each snapshot install, milliseconds.
    pub snapshot_ms: Vec<f64>,
    /// Payload bytes of each installed snapshot.
    pub snapshot_bytes: Vec<u64>,
    /// Wall time spent reading WAL streams and the snapshot back, ms.
    pub read_ms: f64,
}

/// Times and forwards every [`Store`] call to `inner`.
pub struct TimedStore<S> {
    inner: S,
    times: Mutex<StoreTimes>,
}

impl<S: Store> TimedStore<S> {
    /// Wraps `inner`.
    pub fn new(inner: S) -> Self {
        TimedStore {
            inner,
            times: Mutex::new(StoreTimes::default()),
        }
    }

    /// Returns the accumulated timings and starts a fresh window.
    pub fn take(&self) -> StoreTimes {
        std::mem::take(&mut *self.lock())
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, StoreTimes> {
        self.times
            .lock()
            .expect("a thread panicked while booking store timings")
    }

    fn append_timed(
        &self,
        bytes: usize,
        f: impl FnOnce() -> Result<(), StoreError>,
    ) -> Result<(), StoreError> {
        let t = Instant::now();
        let r = f();
        let us = t.elapsed().as_secs_f64() * 1e6;
        let mut times = self.lock();
        times.append_us.push(us);
        times.append_bytes += bytes as u64;
        r
    }

    fn read_timed<T>(&self, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let r = f();
        self.lock().read_ms += t.elapsed().as_secs_f64() * 1e3;
        r
    }
}

impl<S: Store> Store for TimedStore<S> {
    fn append(&self, payload: &[u8]) -> Result<(), StoreError> {
        self.append_timed(payload.len(), || self.inner.append(payload))
    }

    fn wal_bytes(&self) -> Result<Vec<u8>, StoreError> {
        self.read_timed(|| self.inner.wal_bytes())
    }

    fn append_stream(&self, stream: u32, payload: &[u8]) -> Result<(), StoreError> {
        self.append_timed(payload.len(), || self.inner.append_stream(stream, payload))
    }

    fn wal_stream_bytes(&self, stream: u32) -> Result<Vec<u8>, StoreError> {
        self.read_timed(|| self.inner.wal_stream_bytes(stream))
    }

    fn wal_streams(&self) -> Result<Vec<u32>, StoreError> {
        self.read_timed(|| self.inner.wal_streams())
    }

    fn install_snapshot(&self, snapshot: &[u8]) -> Result<(), StoreError> {
        let t = Instant::now();
        let r = self.inner.install_snapshot(snapshot);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        let mut times = self.lock();
        times.snapshot_ms.push(ms);
        times.snapshot_bytes.push(snapshot.len() as u64);
        r
    }

    fn snapshot_bytes(&self) -> Result<Option<Vec<u8>>, StoreError> {
        self.read_timed(|| self.inner.snapshot_bytes())
    }

    fn sync_count(&self) -> u64 {
        self.inner.sync_count()
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use egka_core::{Pkg, SecurityProfile, UserId};
    use egka_hash::ChaChaRng;
    use egka_service::{KeyService, MemStore, MembershipEvent, StoreConfig};
    use rand::SeedableRng;

    use super::*;

    /// Drives a small durable service on `store` and returns it.
    fn drive(pkg: &Arc<Pkg>, store: Arc<dyn Store>) -> KeyService {
        let mut svc = KeyService::builder()
            .store(StoreConfig::new(store).snapshot_every(2))
            .build(Arc::clone(pkg));
        for g in 0..4u32 {
            let members: Vec<UserId> = (g * 10..g * 10 + 4).map(UserId).collect();
            svc.create_group(g.into(), &members).unwrap();
        }
        for epoch in 0..3u32 {
            for g in 0..4u32 {
                svc.submit(g.into(), MembershipEvent::Join(UserId(100 + epoch * 4 + g)))
                    .unwrap();
            }
            svc.tick();
        }
        svc
    }

    fn persisted(store: &dyn Store) -> Vec<Vec<u8>> {
        let mut out = vec![store.snapshot_bytes().unwrap().unwrap_or_default()];
        for s in store.wal_streams().unwrap() {
            out.push(s.to_be_bytes().to_vec());
            out.push(store.wal_stream_bytes(s).unwrap());
        }
        out
    }

    #[test]
    fn forwards_bytes_unchanged_and_recovers_bit_identically() {
        let pkg = Arc::new(Pkg::setup(
            &mut ChaChaRng::seed_from_u64(5),
            SecurityProfile::Toy,
        ));
        let plain = Arc::new(MemStore::new());
        let wrapped = Arc::new(TimedStore::new(MemStore::new()));
        let live_plain = drive(&pkg, Arc::clone(&plain) as Arc<dyn Store>);
        let live_wrapped = drive(&pkg, Arc::clone(&wrapped) as Arc<dyn Store>);
        assert_eq!(persisted(&*plain), persisted(&*wrapped));
        let times = wrapped.take();
        assert!(!times.append_us.is_empty() && !times.snapshot_ms.is_empty());

        let (recovered, _) = KeyService::builder()
            .store(StoreConfig::new(Arc::clone(&wrapped) as Arc<dyn Store>).snapshot_every(2))
            .recover(Arc::clone(&pkg))
            .unwrap();
        assert!(wrapped.take().read_ms > 0.0);
        let fp = crate::run::fingerprint;
        assert_eq!(fp(&recovered), fp(&live_wrapped));
        assert_eq!(fp(&live_wrapped), fp(&live_plain));
    }
}
