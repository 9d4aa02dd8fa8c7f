//! File-backed byte-addressable persistent-memory device with a latency
//! model.
//!
//! The device exposes `read_at`/`write_at`/`persist` like a DAX-mapped
//! PMem region. Every access pays a modeled latency (busy-wait, because
//! real PMem stalls the CPU rather than yielding); setting the model to
//! [`LatencyModel::none`] disables the simulation for unit tests.

use parking_lot::RwLock;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::Path;
use std::time::{Duration, Instant};
use tb_common::{Error, Result};

/// Access-latency model in nanoseconds.
///
/// Defaults follow published Optane App-Direct measurements relative to
/// DRAM (~80 ns loads): ~3× read, ~4× write base latency plus a modest
/// per-256-byte streaming cost.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyModel {
    /// Fixed cost per read call.
    pub read_base_ns: u64,
    /// Fixed cost per write call.
    pub write_base_ns: u64,
    /// Additional cost per 256 bytes transferred.
    pub per_256b_ns: u64,
    /// Cost of a persist (flush + fence).
    pub persist_ns: u64,
}

impl LatencyModel {
    /// Optane-like defaults.
    pub fn optane() -> Self {
        Self {
            read_base_ns: 250,
            write_base_ns: 350,
            per_256b_ns: 40,
            persist_ns: 500,
        }
    }

    /// No simulated latency (unit tests).
    pub fn none() -> Self {
        Self {
            read_base_ns: 0,
            write_base_ns: 0,
            per_256b_ns: 0,
            persist_ns: 0,
        }
    }

    /// Public read-stall hook (PMem-resident cache values).
    pub fn stall_read(&self, len: usize) {
        self.stall(self.read_base_ns, len);
    }

    /// Public write-stall hook.
    pub fn stall_write(&self, len: usize) {
        self.stall(self.write_base_ns, len);
    }

    fn stall(&self, base: u64, len: usize) {
        let total = base + self.per_256b_ns * ((len as u64).div_ceil(256));
        if total == 0 {
            return;
        }
        // Busy-wait: PMem access stalls the core, it does not yield.
        let deadline = Instant::now() + Duration::from_nanos(total);
        while Instant::now() < deadline {
            std::hint::spin_loop();
        }
    }
}

/// A fixed-size persistent region.
///
/// Contents live in an in-memory buffer mirrored to a backing file on
/// [`PmemDevice::persist`]; `open` reloads the file, so persisted data
/// survives drop/reopen (the crash-recovery model used by tests).
pub struct PmemDevice {
    buf: RwLock<Vec<u8>>,
    file: RwLock<File>,
    latency: LatencyModel,
    size: usize,
    /// Dirty byte ranges since the last persist (bounded; overflowing
    /// ranges merge into their nearest neighbor).
    dirty: parking_lot::Mutex<Vec<(usize, usize)>>,
}

/// Cap on tracked dirty ranges before merging.
const DIRTY_RANGES_CAP: usize = 8;

fn mark_dirty(ranges: &mut Vec<(usize, usize)>, start: usize, end: usize) {
    // Merge with any overlapping/adjacent range.
    for r in ranges.iter_mut() {
        if start <= r.1 && end >= r.0 {
            r.0 = r.0.min(start);
            r.1 = r.1.max(end);
            return;
        }
    }
    ranges.push((start, end));
    if ranges.len() > DIRTY_RANGES_CAP {
        // Merge the two closest ranges.
        ranges.sort_unstable();
        let mut best = 0;
        let mut best_gap = usize::MAX;
        for i in 0..ranges.len() - 1 {
            let gap = ranges[i + 1].0.saturating_sub(ranges[i].1);
            if gap < best_gap {
                best_gap = gap;
                best = i;
            }
        }
        let (_, e2) = ranges.remove(best + 1);
        ranges[best].1 = ranges[best].1.max(e2);
    }
}

impl PmemDevice {
    /// Creates (or truncates) a device of `size` bytes at `path`.
    pub fn create(path: &Path, size: usize, latency: LatencyModel) -> Result<Self> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        let zeros = vec![0u8; size];
        file.write_all(&zeros)?;
        file.flush()?;
        Ok(Self {
            buf: RwLock::new(zeros),
            file: RwLock::new(file),
            latency,
            size,
            dirty: parking_lot::Mutex::new(Vec::new()),
        })
    }

    /// Opens an existing device, reloading persisted contents.
    pub fn open(path: &Path, latency: LatencyModel) -> Result<Self> {
        let mut file = OpenOptions::new().read(true).write(true).open(path)?;
        let mut buf = Vec::new();
        file.read_to_end(&mut buf)?;
        let size = buf.len();
        Ok(Self {
            buf: RwLock::new(buf),
            file: RwLock::new(file),
            latency,
            size,
            dirty: parking_lot::Mutex::new(Vec::new()),
        })
    }

    /// Device capacity in bytes.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Reads `out.len()` bytes at `offset`.
    pub fn read_at(&self, offset: usize, out: &mut [u8]) -> Result<()> {
        if offset + out.len() > self.size {
            return Err(Error::InvalidArgument(format!(
                "read [{offset}, {}) past device end {}",
                offset + out.len(),
                self.size
            )));
        }
        self.latency.stall(self.latency.read_base_ns, out.len());
        out.copy_from_slice(&self.buf.read()[offset..offset + out.len()]);
        Ok(())
    }

    /// Writes `data` at `offset` (visible immediately, durable after
    /// [`Self::persist`]).
    pub fn write_at(&self, offset: usize, data: &[u8]) -> Result<()> {
        if offset + data.len() > self.size {
            return Err(Error::InvalidArgument(format!(
                "write [{offset}, {}) past device end {}",
                offset + data.len(),
                self.size
            )));
        }
        self.latency.stall(self.latency.write_base_ns, data.len());
        self.buf.write()[offset..offset + data.len()].copy_from_slice(data);
        mark_dirty(&mut self.dirty.lock(), offset, offset + data.len());
        Ok(())
    }

    /// Flush + fence: makes all prior writes survive a *process*
    /// crash. Only the dirty range is written back (a real PMem flush
    /// drains store buffers, not the whole DIMM). The ranges reach the
    /// backing file's OS page cache and no further: the closing
    /// `File::flush` does nothing for a `File`, and nothing fsyncs
    /// it, so an OS crash or power cut may lose persisted writes until
    /// the device models a persistence domain.
    pub fn persist(&self) -> Result<()> {
        self.latency.stall(self.latency.persist_ns, 0);
        let ranges = std::mem::take(&mut *self.dirty.lock());
        if ranges.is_empty() {
            return Ok(());
        }
        let buf = self.buf.read();
        let mut file = self.file.write();
        for (start, end) in ranges {
            file.seek(SeekFrom::Start(start as u64))?;
            file.write_all(&buf[start..end])?;
        }
        file.flush()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("tb-pmem-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{name}-{}", std::process::id()))
    }

    #[test]
    fn write_read_roundtrip() {
        let p = tmp("rw");
        let d = PmemDevice::create(&p, 4096, LatencyModel::none()).unwrap();
        d.write_at(100, b"persistent!").unwrap();
        let mut out = vec![0u8; 11];
        d.read_at(100, &mut out).unwrap();
        assert_eq!(&out, b"persistent!");
    }

    #[test]
    fn bounds_are_enforced() {
        let p = tmp("bounds");
        let d = PmemDevice::create(&p, 128, LatencyModel::none()).unwrap();
        assert!(d.write_at(120, b"0123456789").is_err());
        let mut out = vec![0u8; 16];
        assert!(d.read_at(120, &mut out).is_err());
        // Boundary-exact access is fine.
        d.write_at(120, b"01234567").unwrap();
    }

    #[test]
    fn persisted_data_survives_reopen() {
        let p = tmp("reopen");
        {
            let d = PmemDevice::create(&p, 1024, LatencyModel::none()).unwrap();
            d.write_at(0, b"durable-bytes").unwrap();
            d.persist().unwrap();
        }
        let d = PmemDevice::open(&p, LatencyModel::none()).unwrap();
        assert_eq!(d.size(), 1024);
        let mut out = vec![0u8; 13];
        d.read_at(0, &mut out).unwrap();
        assert_eq!(&out, b"durable-bytes");
    }

    #[test]
    fn unpersisted_data_lost_on_reopen() {
        let p = tmp("lost");
        {
            let d = PmemDevice::create(&p, 64, LatencyModel::none()).unwrap();
            d.persist().unwrap();
            d.write_at(0, b"volatile").unwrap();
            // no persist
        }
        let d = PmemDevice::open(&p, LatencyModel::none()).unwrap();
        let mut out = vec![0u8; 8];
        d.read_at(0, &mut out).unwrap();
        assert_eq!(out, vec![0u8; 8], "unflushed write must not be durable");
    }

    #[test]
    fn latency_model_slows_access() {
        let p = tmp("latency");
        let slow = LatencyModel {
            read_base_ns: 200_000, // exaggerated for measurability
            write_base_ns: 200_000,
            per_256b_ns: 0,
            persist_ns: 0,
        };
        let d = PmemDevice::create(&p, 1024, slow).unwrap();
        let t0 = std::time::Instant::now();
        for _ in 0..10 {
            d.write_at(0, b"x").unwrap();
        }
        assert!(
            t0.elapsed() >= Duration::from_millis(2),
            "latency model not applied: {:?}",
            t0.elapsed()
        );
    }
}
