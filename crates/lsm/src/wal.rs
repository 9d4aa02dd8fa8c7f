//! Write-ahead log: [`tb_common::log`] frames in a file, with torn-tail
//! recovery.
//!
//! Each frame's `lsn` is the monotone log sequence number the engine
//! assigned the write (the currency of replication shipping and session
//! guarantees — see `tb_common::engine`). Replay truncates a torn tail
//! in place, so later appends never interleave with garbage, and
//! surfaces mid-log corruption as [`Error::Corruption`], leaving the
//! file untouched for inspection.
//!
//! A failed append repairs the log in place (truncate back to the last
//! durable frame) so one transient IO error cannot turn into mid-log
//! corruption on the next successful append.

use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use tb_common::log::{self, FRAME_HEADER};
use tb_common::{durable, fault, Error, Result};

/// The fault sites a log's appends and syncs pass.
#[derive(Debug, Clone, Copy)]
pub struct WalSites {
    pub header: &'static str,
    pub payload: &'static str,
    pub sync: &'static str,
}

impl WalSites {
    /// The LSM's WAL segments (and every log [`Wal::open`] opens).
    pub const LSM: WalSites = WalSites {
        header: "wal.append.header",
        payload: "wal.append.payload",
        sync: "wal.sync",
    };
    /// The cache tier's logs, `cache.wal` and `cache.cold.wal`.
    pub const CACHE: WalSites = WalSites {
        header: "cache.wal.append.header",
        payload: "cache.wal.append.payload",
        sync: "cache.wal.sync",
    };
}

/// When the WAL forces data to the OS.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncPolicy {
    /// Flush + fsync on every append (safest, slowest).
    EveryWrite,
    /// Frames reach the OS on every append and the disk only when
    /// something fsyncs the log: [`Wal::sync`] (the engine's `sync`,
    /// once per front-end burst) and segment rotation, which fsyncs
    /// the full segment before the next one opens. Nothing flushes on
    /// a timer, so a process crash loses no appended frame and an OS
    /// crash loses what was appended since the last fsync.
    OsBuffer,
}

/// An append-only write-ahead log.
pub struct Wal {
    writer: BufWriter<File>,
    path: PathBuf,
    policy: SyncPolicy,
    sites: WalSites,
    len: u64,
    /// Set when a failed append could not be repaired; all writes fail
    /// until the log is reset or reopened (recovery stays possible —
    /// the file still ends in at worst a torn tail).
    poisoned: bool,
}

impl Wal {
    /// Opens (appending) or creates the WAL at `path`. A log it creates
    /// is durable by name before this returns: its directory is
    /// fsynced, so the frames a later sync makes durable in it are
    /// found again after a power loss.
    pub fn open(path: &Path, policy: SyncPolicy) -> Result<Self> {
        Self::open_with_sites(path, policy, WalSites::LSM)
    }

    /// [`Self::open`], passing `sites` instead of the LSM's.
    pub fn open_with_sites(path: &Path, policy: SyncPolicy, sites: WalSites) -> Result<Self> {
        let created = !path.exists();
        let file = OpenOptions::new()
            .read(true)
            .append(true)
            .create(true)
            .open(path)?;
        if created {
            durable::sync_parent(path)?;
        }
        let len = file.metadata()?.len();
        Ok(Self {
            writer: BufWriter::new(file),
            path: path.to_path_buf(),
            policy,
            sites,
            len,
            poisoned: false,
        })
    }

    fn poisoned_err() -> Error {
        Error::Io("WAL poisoned by an unrepaired append failure; reopen to recover".into())
    }

    /// Appends one record sequenced at `lsn`.
    pub fn append(&mut self, lsn: u64, payload: &[u8]) -> Result<()> {
        if self.poisoned {
            return Err(Self::poisoned_err());
        }
        match self.try_append(lsn, payload) {
            Ok(()) => Ok(()),
            Err(e) => {
                // The frame may be partially buffered or flushed; cut
                // the file back to the last complete frame so the log
                // cannot accumulate garbage *between* valid records.
                self.repair();
                Err(e)
            }
        }
    }

    fn try_append(&mut self, lsn: u64, payload: &[u8]) -> Result<()> {
        fault::hit(self.sites.header)?;
        self.writer.write_all(&log::frame_header(lsn, payload))?;
        fault::write_all(self.sites.payload, &mut self.writer, payload)?;
        match self.policy {
            SyncPolicy::EveryWrite => {
                self.writer.flush()?;
                fault::hit(self.sites.sync)?;
                self.writer.get_ref().sync_data()?;
            }
            SyncPolicy::OsBuffer => self.writer.flush()?,
        }
        // Count the frame only once it is fully in the OS: `len` is the
        // truncation point `repair` falls back to.
        self.len += (FRAME_HEADER + payload.len()) as u64;
        Ok(())
    }

    /// Best-effort recovery from a failed append: drop whatever the
    /// broken frame left in the buffer (without flushing it) and
    /// truncate the file back to the last complete frame.
    fn repair(&mut self) {
        let reopened = (|| -> std::io::Result<File> {
            let mut f = OpenOptions::new().read(true).write(true).open(&self.path)?;
            f.set_len(self.len)?;
            f.seek(SeekFrom::End(0))?;
            f.sync_data()?;
            Ok(f)
        })();
        match reopened {
            Ok(f) => {
                // Swap in a clean writer; `into_parts` discards the old
                // buffer without flushing its partial frame.
                let old = std::mem::replace(&mut self.writer, BufWriter::new(f));
                let _ = old.into_parts();
            }
            Err(_) => self.poisoned = true,
        }
    }

    /// Forces everything to durable storage.
    pub fn sync(&mut self) -> Result<()> {
        let file = self.sync_handle()?;
        fault::hit(self.sites.sync)?;
        file.sync_data()?;
        Ok(())
    }

    /// Hands every appended frame to the OS and returns a handle to the
    /// log file, so the caller can `fdatasync` it without holding the
    /// log (or whatever lock guards it).
    pub fn sync_handle(&mut self) -> Result<File> {
        if self.poisoned {
            return Err(Self::poisoned_err());
        }
        self.writer.flush()?;
        Ok(self.writer.get_ref().try_clone()?)
    }

    /// Current log size in bytes.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// True when the log holds no records.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Replays all intact records as `(lsn, payload)` in log order. A
    /// torn tail (nothing valid after the broken frame) is truncated in
    /// place; an invalid frame with valid records after it is mid-log
    /// corruption and surfaces as [`Error::Corruption`].
    pub fn replay(path: &Path) -> Result<Vec<(u64, Vec<u8>)>> {
        let mut file = match File::open(path) {
            Ok(f) => f,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(vec![]),
            Err(e) => return Err(e.into()),
        };
        let mut buf = Vec::new();
        file.read_to_end(&mut buf)?;
        let parsed = log::parse(&buf)?;
        if parsed.end < buf.len() {
            // A torn tail: drop it so the next append starts clean.
            let f = OpenOptions::new().write(true).open(path)?;
            f.set_len(parsed.end as u64)?;
            f.sync_data()?;
        }
        Ok(parsed
            .frames
            .into_iter()
            .map(|(lsn, payload)| (lsn, payload.to_vec()))
            .collect())
    }

    /// Path of the underlying file.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> (tb_common::TestDir, PathBuf) {
        let dir = tb_common::test_dir(&format!("tb-wal-{name}"));
        let p = dir.create().join("WAL");
        (dir, p)
    }

    #[test]
    fn append_replay_roundtrip() {
        let (_dir, p) = tmp("roundtrip");
        {
            let mut wal = Wal::open(&p, SyncPolicy::EveryWrite).unwrap();
            wal.append(1, b"one").unwrap();
            wal.append(2, b"two").unwrap();
            wal.append(7, b"").unwrap();
        }
        let recs = Wal::replay(&p).unwrap();
        assert_eq!(
            recs,
            vec![(1, b"one".to_vec()), (2, b"two".to_vec()), (7, vec![])],
            "records replay with the LSNs they were sequenced at"
        );
    }

    #[test]
    fn missing_file_replays_empty() {
        let (_dir, p) = tmp("missing");
        assert!(Wal::replay(&p).unwrap().is_empty());
    }

    #[test]
    fn torn_tail_is_truncated() {
        let (_dir, p) = tmp("torn");
        {
            let mut wal = Wal::open(&p, SyncPolicy::EveryWrite).unwrap();
            wal.append(1, b"intact-record").unwrap();
        }
        // Simulate a torn append: a partial frame at the end.
        {
            let mut f = OpenOptions::new().append(true).open(&p).unwrap();
            f.write_all(&100u32.to_le_bytes()).unwrap(); // length with no payload
            f.write_all(&0u32.to_le_bytes()).unwrap();
            f.write_all(&2u64.to_le_bytes()).unwrap();
            f.write_all(b"partial").unwrap();
        }
        let recs = Wal::replay(&p).unwrap();
        assert_eq!(recs, vec![(1, b"intact-record".to_vec())]);
        // File physically truncated: a fresh append then replays cleanly.
        let mut wal = Wal::open(&p, SyncPolicy::EveryWrite).unwrap();
        wal.append(2, b"after-recovery").unwrap();
        drop(wal);
        let recs = Wal::replay(&p).unwrap();
        assert_eq!(
            recs,
            vec![
                (1, b"intact-record".to_vec()),
                (2, b"after-recovery".to_vec())
            ]
        );
    }

    #[test]
    fn corrupted_middle_record_surfaces_error() {
        let (_dir, p) = tmp("corrupt");
        {
            let mut wal = Wal::open(&p, SyncPolicy::EveryWrite).unwrap();
            wal.append(1, b"good").unwrap();
            wal.append(2, b"will-be-corrupted").unwrap();
            wal.append(3, b"reachable-and-valid").unwrap();
        }
        let before = std::fs::read(&p).unwrap();
        {
            let mut f = OpenOptions::new().write(true).open(&p).unwrap();
            // Flip a payload byte of the second record.
            let second_payload = (FRAME_HEADER + 4) + FRAME_HEADER;
            f.seek(SeekFrom::Start(second_payload as u64 + 3)).unwrap();
            f.write_all(b"X").unwrap();
        }
        let err = Wal::replay(&p).unwrap_err();
        assert!(
            matches!(err, Error::Corruption(_)),
            "valid records after a bad frame must not be silently dropped: {err}"
        );
        // The file is left untouched for inspection — no truncation.
        assert_eq!(std::fs::read(&p).unwrap().len(), before.len());
    }

    #[test]
    fn corruption_before_trailing_empty_record_is_surfaced() {
        let (_dir, p) = tmp("corrupt-before-empty");
        {
            let mut wal = Wal::open(&p, SyncPolicy::EveryWrite).unwrap();
            wal.append(1, b"will-be-corrupted").unwrap();
            // Valid header-only frame, last in file.
            wal.append(2, b"").unwrap();
        }
        {
            let mut f = OpenOptions::new().write(true).open(&p).unwrap();
            f.seek(SeekFrom::Start(FRAME_HEADER as u64 + 2)).unwrap();
            f.write_all(b"X").unwrap();
        }
        // The empty record after the bad frame is still acknowledged
        // data; truncating would drop it silently.
        assert!(matches!(Wal::replay(&p).unwrap_err(), Error::Corruption(_)));
    }

    #[test]
    fn corrupted_last_record_is_a_torn_tail() {
        let (_dir, p) = tmp("corrupt-last");
        {
            let mut wal = Wal::open(&p, SyncPolicy::EveryWrite).unwrap();
            wal.append(1, b"good-first").unwrap();
            wal.append(2, b"payload-torn-by-crash").unwrap();
        }
        {
            let len = std::fs::metadata(&p).unwrap().len();
            let mut f = OpenOptions::new().write(true).open(&p).unwrap();
            // Flip a byte inside the *last* record's payload.
            f.seek(SeekFrom::Start(len - 3)).unwrap();
            f.write_all(b"X").unwrap();
        }
        // Nothing valid follows, so this recovers as a torn tail.
        let recs = Wal::replay(&p).unwrap();
        assert_eq!(recs, vec![(1, b"good-first".to_vec())]);
    }

    #[test]
    fn failed_append_is_repaired_not_left_as_garbage() {
        use tb_common::fault::{self, FaultMode};
        let _g = crate::fault_test_gate();
        let (_dir, p) = tmp("append-repair");
        let mut wal = Wal::open(&p, SyncPolicy::OsBuffer).unwrap();
        wal.append(1, b"before-the-fault").unwrap();
        // The payload write fails after the header entered the buffer.
        // (Scoped: parallel tests in this binary must not trip it.)
        let guard = fault::arm_scoped("wal.append.payload", 1, FaultMode::Error);
        let err = wal.append(2, b"never-lands").unwrap_err();
        drop(guard);
        assert!(matches!(err, Error::FaultInjected(_)), "{err}");
        // The log stays usable and the next append lands right after
        // the last complete frame — no garbage in between.
        wal.append(2, b"after-the-fault").unwrap();
        drop(wal);
        assert_eq!(
            Wal::replay(&p).unwrap(),
            vec![
                (1, b"before-the-fault".to_vec()),
                (2, b"after-the-fault".to_vec())
            ]
        );
    }

    #[test]
    fn sync_handle_covers_every_append() {
        let (_dir, p) = tmp("sync-handle");
        let mut wal = Wal::open(&p, SyncPolicy::OsBuffer).unwrap();
        wal.append(1, b"before-the-handle").unwrap();
        let file = wal.sync_handle().unwrap();
        // The handle outlives the borrow: the fsync runs with the log
        // free for the next append.
        wal.append(2, b"racing-the-fsync").unwrap();
        file.sync_data().unwrap();
        drop(wal);
        assert_eq!(
            Wal::replay(&p).unwrap(),
            vec![
                (1, b"before-the-handle".to_vec()),
                (2, b"racing-the-fsync".to_vec())
            ]
        );
    }

    #[test]
    fn reopen_appends_after_existing() {
        let (_dir, p) = tmp("reopen");
        {
            let mut wal = Wal::open(&p, SyncPolicy::EveryWrite).unwrap();
            wal.append(1, b"first").unwrap();
        }
        {
            let mut wal = Wal::open(&p, SyncPolicy::EveryWrite).unwrap();
            assert!(!wal.is_empty());
            wal.append(2, b"second").unwrap();
        }
        assert_eq!(
            Wal::replay(&p).unwrap(),
            vec![(1, b"first".to_vec()), (2, b"second".to_vec())]
        );
    }
}
