//! The filesystem backend: one directory, `wal.log` + `snapshot.bin`.

use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use crate::wal::{frame, scan, Tail};
use crate::{Store, StoreError, POISONED};

#[derive(Debug)]
struct FileState {
    wal: File,
    /// Lazily-opened handles for streams > 0 (`wal.{n}.log`).
    streams: std::collections::BTreeMap<u32, File>,
    syncs: u64,
}

/// A [`Store`] persisted in a directory.
///
/// * `wal.log` — the append-only record stream ([`crate::wal`] framing).
///   [`Store::append`] writes the frame then `fdatasync`s the file before
///   returning; [`Store::append_unsynced`] only writes it (the kernel holds
///   it, so a process crash keeps it), and the next [`Store::sync`] or
///   durable append makes it survive a power loss too. Opening the store
///   cuts a torn tail off `wal.log`, so new records start on a frame
///   boundary instead of behind bytes that never became a record.
/// * `wal.{k}.log` — streams `k > 0`, written only by
///   [`Store::append_stream`] (each append fsynced). The service no longer
///   writes them; stores from its earlier per-shard layout still hold them,
///   and recovery still reads them.
/// * `snapshot.bin` — the latest compacting snapshot (one checksummed
///   frame), installed by write-to-temp + rename so a crash never leaves a
///   half-written snapshot under the real name.
#[derive(Debug)]
pub struct FileStore {
    dir: PathBuf,
    state: Mutex<FileState>,
}

impl FileStore {
    /// Opens (creating if needed) the store directory. A torn tail on
    /// `wal.log` (an unfinished append, or the zeros a power loss can
    /// leave) never became a record; it is truncated away here, or the
    /// next append would land behind it and a later scan would stop at
    /// the tear or report corruption. A damaged log is left as it is, for
    /// recovery to report.
    pub fn open(dir: impl AsRef<Path>) -> Result<Self, StoreError> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        let wal = OpenOptions::new()
            .create(true)
            .append(true)
            .read(true)
            .open(dir.join("wal.log"))?;
        if let Ok((_, Tail::Torn { torn_at })) = scan(&Self::read_file(&dir.join("wal.log"))?) {
            wal.set_len(torn_at as u64)?;
            wal.sync_data()?;
        }
        Ok(FileStore {
            dir,
            state: Mutex::new(FileState {
                wal,
                streams: std::collections::BTreeMap::new(),
                syncs: 0,
            }),
        })
    }

    /// The directory this store persists into.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn snapshot_path(&self) -> PathBuf {
        self.dir.join("snapshot.bin")
    }

    fn stream_path(&self, stream: u32) -> PathBuf {
        if stream == 0 {
            self.dir.join("wal.log")
        } else {
            self.dir.join(format!("wal.{stream}.log"))
        }
    }

    fn read_file(path: &Path) -> Result<Vec<u8>, StoreError> {
        // Read through a fresh handle so append cursors are untouched.
        let mut bytes = Vec::new();
        match File::open(path) {
            Ok(mut f) => {
                f.read_to_end(&mut bytes)?;
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(e.into()),
        }
        Ok(bytes)
    }
}

impl Store for FileStore {
    fn append(&self, payload: &[u8]) -> Result<(), StoreError> {
        self.append_unsynced(payload)?;
        self.sync()
    }

    fn append_unsynced(&self, payload: &[u8]) -> Result<(), StoreError> {
        let framed = frame(payload)?;
        let mut state = self.state.lock().expect(POISONED);
        state.wal.write_all(&framed)?;
        Ok(())
    }

    fn sync(&self) -> Result<(), StoreError> {
        // Only `wal.log` ever holds unsynced writes: `append_stream` on a
        // stream > 0 syncs its own file before returning.
        let mut state = self.state.lock().expect(POISONED);
        state.wal.sync_data()?;
        state.syncs += 1;
        Ok(())
    }

    fn wal_bytes(&self) -> Result<Vec<u8>, StoreError> {
        Self::read_file(&self.dir.join("wal.log"))
    }

    fn append_stream(&self, stream: u32, payload: &[u8]) -> Result<(), StoreError> {
        if stream == 0 {
            return self.append(payload);
        }
        let framed = frame(payload)?;
        let mut state = self.state.lock().expect(POISONED);
        let f = match state.streams.entry(stream) {
            std::collections::btree_map::Entry::Occupied(e) => e.into_mut(),
            std::collections::btree_map::Entry::Vacant(e) => e.insert(
                OpenOptions::new()
                    .create(true)
                    .append(true)
                    .read(true)
                    .open(self.stream_path(stream))?,
            ),
        };
        f.write_all(&framed)?;
        f.sync_data()?;
        state.syncs += 1;
        Ok(())
    }

    fn wal_stream_bytes(&self, stream: u32) -> Result<Vec<u8>, StoreError> {
        Self::read_file(&self.stream_path(stream))
    }

    fn wal_streams(&self) -> Result<Vec<u32>, StoreError> {
        let mut ids = vec![0];
        for entry in std::fs::read_dir(&self.dir)? {
            let name = entry?.file_name();
            let Some(name) = name.to_str() else { continue };
            if let Some(mid) = name
                .strip_prefix("wal.")
                .and_then(|s| s.strip_suffix(".log"))
            {
                if let Ok(id) = mid.parse::<u32>() {
                    if id > 0 {
                        ids.push(id);
                    }
                }
            }
        }
        ids.sort_unstable();
        Ok(ids)
    }

    fn install_snapshot(&self, snapshot: &[u8]) -> Result<(), StoreError> {
        let framed = frame(snapshot)?;
        let mut state = self.state.lock().expect(POISONED);
        // Durable snapshot first (tmp + fsync + rename), *then* truncate
        // the log: a crash between the two leaves snapshot + stale tail,
        // and replaying a tail of already-snapshotted records is prevented
        // by the epoch guard in the snapshot header upstream — while the
        // reverse order could lose commits outright.
        let tmp = self.dir.join("snapshot.tmp");
        {
            let mut f = File::create(&tmp)?;
            f.write_all(&framed)?;
            f.sync_data()?;
        }
        std::fs::rename(&tmp, self.snapshot_path())?;
        if let Ok(d) = File::open(&self.dir) {
            // Persist the rename itself; best-effort on filesystems that
            // reject directory fsync.
            let _ = d.sync_all();
        }
        state.wal.set_len(0)?;
        state.wal.sync_data()?;
        for f in state.streams.values_mut() {
            f.set_len(0)?;
            f.sync_data()?;
        }
        // Streams that were written by a previous opening (no live handle)
        // must be truncated too, or recovery would replay stale records.
        for entry in std::fs::read_dir(&self.dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if let Some(mid) = name
                .strip_prefix("wal.")
                .and_then(|s| s.strip_suffix(".log"))
            {
                if let Ok(id) = mid.parse::<u32>() {
                    if id > 0 && !state.streams.contains_key(&id) {
                        let f = OpenOptions::new().write(true).open(entry.path())?;
                        f.set_len(0)?;
                        f.sync_data()?;
                    }
                }
            }
        }
        state.syncs += 2;
        Ok(())
    }

    fn snapshot_bytes(&self) -> Result<Option<Vec<u8>>, StoreError> {
        let mut bytes = Vec::new();
        match File::open(self.snapshot_path()) {
            Ok(mut f) => {
                f.read_to_end(&mut bytes)?;
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e.into()),
        }
        crate::unframe_snapshot(&bytes).map(Some)
    }

    fn sync_count(&self) -> u64 {
        self.state.lock().expect(POISONED).syncs
    }
}
