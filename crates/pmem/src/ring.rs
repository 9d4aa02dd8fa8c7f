//! Persistent ring buffer — the WAL-PMem design (§4.3).
//!
//! WAL records append to a fixed-size ring on the PMem device and are
//! made durable per transaction (one `persist` instead of a disk fsync,
//! beating the IOPS bottleneck). A background consumer batch-drains the
//! ring to bulk storage; producers see backpressure when the consumer
//! falls a full ring behind.
//!
//! Layout: a 24-byte header (head, tail, header CRC) followed by the
//! data area. Records are framed `len u32 | crc u32 | payload` and may
//! wrap around the data area end. Recovery replays `head..tail` and
//! truncates at the first torn record.

use crate::device::PmemDevice;
use parking_lot::Mutex;
use std::sync::Arc;
use tb_common::{crc32, Error, Result};

const HEADER_SIZE: usize = 24;
const FRAME_HEADER: usize = 8;

/// Ring construction options.
#[derive(Debug, Clone, Copy)]
pub struct RingConfig {
    /// Persist to the device on every append (per-transaction WAL
    /// semantics). Turn off to batch persists at a higher layer.
    pub persist_each_append: bool,
}

impl Default for RingConfig {
    fn default() -> Self {
        Self {
            persist_each_append: true,
        }
    }
}

struct State {
    /// Logical byte offsets; physical = logical % data_len. Monotonic.
    head: u64,
    tail: u64,
}

/// A crash-safe FIFO of byte records on a [`PmemDevice`].
pub struct PersistentRingBuffer {
    device: Arc<PmemDevice>,
    state: Mutex<State>,
    /// Held through a drain, persist included.
    drain_turn: Mutex<()>,
    data_len: usize,
    config: RingConfig,
}

impl PersistentRingBuffer {
    /// Formats a fresh ring covering the whole device.
    pub fn create(device: Arc<PmemDevice>, config: RingConfig) -> Result<Self> {
        if device.size() <= HEADER_SIZE + FRAME_HEADER {
            return Err(Error::InvalidArgument("device too small for ring".into()));
        }
        let ring = Self {
            data_len: device.size() - HEADER_SIZE,
            device,
            state: Mutex::new(State { head: 0, tail: 0 }),
            drain_turn: Mutex::new(()),
            config,
        };
        ring.persist_header(0, 0)?;
        // Formatting must be durable even in batched-persist mode.
        ring.device.persist()?;
        Ok(ring)
    }

    /// Reopens a ring from a persisted device, validating the header and
    /// truncating at the first torn record (crash recovery).
    pub fn recover(device: Arc<PmemDevice>, config: RingConfig) -> Result<Self> {
        let mut hdr = [0u8; HEADER_SIZE];
        device.read_at(0, &mut hdr)?;
        let head = u64::from_le_bytes(hdr[0..8].try_into().unwrap());
        let tail = u64::from_le_bytes(hdr[8..16].try_into().unwrap());
        let stored_crc = u32::from_le_bytes(hdr[16..20].try_into().unwrap());
        if crc32(&hdr[0..16]) != stored_crc {
            return Err(Error::Corruption("ring header crc mismatch".into()));
        }
        let ring = Self {
            data_len: device.size() - HEADER_SIZE,
            device,
            state: Mutex::new(State { head, tail }),
            drain_turn: Mutex::new(()),
            config,
        };
        // Walk records; stop at the first invalid frame (torn tail).
        let mut pos = head;
        while pos < tail {
            match ring.read_frame(pos) {
                Ok(payload) => pos += (FRAME_HEADER + payload.len()) as u64,
                Err(_) => break,
            }
        }
        ring.state.lock().tail = pos;
        ring.persist_header(head, pos)?;
        Ok(ring)
    }

    /// Bytes of records currently enqueued.
    pub fn used(&self) -> usize {
        let s = self.state.lock();
        (s.tail - s.head) as usize
    }

    /// Free space in bytes.
    pub fn free(&self) -> usize {
        self.data_len - self.used()
    }

    /// True when no records are queued.
    pub fn is_empty(&self) -> bool {
        self.used() == 0
    }

    /// Appends one record. Errors with [`Error::Backpressure`] when the
    /// consumer is a full ring behind.
    pub fn append(&self, payload: &[u8]) -> Result<()> {
        let frame_len = FRAME_HEADER + payload.len();
        if frame_len > self.data_len {
            return Err(Error::InvalidArgument(format!(
                "record of {} bytes exceeds ring capacity {}",
                payload.len(),
                self.data_len
            )));
        }
        let (head, tail) = {
            let s = self.state.lock();
            (s.head, s.tail)
        };
        if (tail - head) as usize + frame_len > self.data_len {
            return Err(Error::backpressure(format!(
                "ring full: {} used of {}",
                (tail - head),
                self.data_len
            )));
        }
        let mut frame = Vec::with_capacity(frame_len);
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&crc32(payload).to_le_bytes());
        frame.extend_from_slice(payload);
        self.write_wrapped(tail, &frame)?;
        {
            let mut s = self.state.lock();
            s.tail = tail + frame_len as u64;
        }
        self.persist_header(head, tail + frame_len as u64)?;
        if self.config.persist_each_append {
            self.device.persist()?;
        }
        Ok(())
    }

    /// Removes and returns up to `max_records` records from the front
    /// (the batch-move-to-cloud-storage path). `persist` gets them
    /// first, and the head moves past them only once it succeeds, so a
    /// crash or an error in between leaves them queued. Drains take
    /// turns: no record is handed out twice.
    pub fn drain_batch(
        &self,
        max_records: usize,
        persist: impl FnOnce(&[Vec<u8>]) -> Result<()>,
    ) -> Result<Vec<Vec<u8>>> {
        let _turn = self.drain_turn.lock();
        let mut out = Vec::new();
        let (mut head, tail) = {
            let s = self.state.lock();
            (s.head, s.tail)
        };
        while out.len() < max_records && head < tail {
            let payload = self.read_frame(head)?;
            head += (FRAME_HEADER + payload.len()) as u64;
            out.push(payload);
        }
        persist(&out)?;
        let tail = {
            let mut s = self.state.lock();
            s.head = head;
            s.tail
        };
        self.persist_header(head, tail)?;
        Ok(out)
    }

    /// Reads every queued record without consuming (recovery replay).
    pub fn peek_all(&self) -> Result<Vec<Vec<u8>>> {
        let (mut pos, tail) = {
            let s = self.state.lock();
            (s.head, s.tail)
        };
        let mut out = Vec::new();
        while pos < tail {
            let payload = self.read_frame(pos)?;
            pos += (FRAME_HEADER + payload.len()) as u64;
            out.push(payload);
        }
        Ok(out)
    }

    fn read_frame(&self, logical: u64) -> Result<Vec<u8>> {
        let mut hdr = [0u8; FRAME_HEADER];
        self.read_wrapped(logical, &mut hdr)?;
        let len = u32::from_le_bytes(hdr[0..4].try_into().unwrap()) as usize;
        let stored_crc = u32::from_le_bytes(hdr[4..8].try_into().unwrap());
        if FRAME_HEADER + len > self.data_len {
            return Err(Error::Corruption("frame length exceeds ring".into()));
        }
        let mut payload = vec![0u8; len];
        self.read_wrapped(logical + FRAME_HEADER as u64, &mut payload)?;
        if crc32(&payload) != stored_crc {
            return Err(Error::Corruption("ring frame crc mismatch".into()));
        }
        Ok(payload)
    }

    fn write_wrapped(&self, logical: u64, data: &[u8]) -> Result<()> {
        let phys = (logical % self.data_len as u64) as usize;
        let first = data.len().min(self.data_len - phys);
        self.device.write_at(HEADER_SIZE + phys, &data[..first])?;
        if first < data.len() {
            self.device.write_at(HEADER_SIZE, &data[first..])?;
        }
        Ok(())
    }

    fn read_wrapped(&self, logical: u64, out: &mut [u8]) -> Result<()> {
        let phys = (logical % self.data_len as u64) as usize;
        let first = out.len().min(self.data_len - phys);
        self.device.read_at(HEADER_SIZE + phys, &mut out[..first])?;
        if first < out.len() {
            let rest = out.len() - first;
            let mut tail = vec![0u8; rest];
            self.device.read_at(HEADER_SIZE, &mut tail)?;
            out[first..].copy_from_slice(&tail);
        }
        Ok(())
    }

    fn persist_header(&self, head: u64, tail: u64) -> Result<()> {
        let mut hdr = [0u8; HEADER_SIZE];
        hdr[0..8].copy_from_slice(&head.to_le_bytes());
        hdr[8..16].copy_from_slice(&tail.to_le_bytes());
        let crc = crc32(&hdr[0..16]);
        hdr[16..20].copy_from_slice(&crc.to_le_bytes());
        self.device.write_at(0, &hdr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::LatencyModel;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("tb-ring-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{name}-{}", std::process::id()))
    }

    fn new_ring(name: &str, size: usize) -> (PersistentRingBuffer, std::path::PathBuf) {
        let p = tmp(name);
        let d = Arc::new(PmemDevice::create(&p, size, LatencyModel::none()).unwrap());
        (
            PersistentRingBuffer::create(d, RingConfig::default()).unwrap(),
            p,
        )
    }

    #[test]
    fn fifo_order() {
        let (ring, _) = new_ring("fifo", 4096);
        for i in 0..10 {
            ring.append(format!("record-{i}").as_bytes()).unwrap();
        }
        let batch = ring.drain_batch(4, |_| Ok(())).unwrap();
        assert_eq!(batch.len(), 4);
        assert_eq!(batch[0], b"record-0");
        assert_eq!(batch[3], b"record-3");
        let rest = ring.drain_batch(100, |_| Ok(())).unwrap();
        assert_eq!(rest.len(), 6);
        assert!(ring.is_empty());
    }

    #[test]
    fn wraparound_preserves_records() {
        let (ring, _) = new_ring("wrap", 256); // tiny: forces wrapping
        for round in 0..50 {
            let rec = format!("wraparound-payload-{round:04}");
            ring.append(rec.as_bytes()).unwrap();
            let got = ring.drain_batch(1, |_| Ok(())).unwrap();
            assert_eq!(got[0], rec.as_bytes());
        }
    }

    #[test]
    fn backpressure_when_full() {
        let (ring, _) = new_ring("full", 128);
        let rec = vec![7u8; 40];
        ring.append(&rec).unwrap();
        ring.append(&rec).unwrap();
        let err = ring.append(&rec).unwrap_err();
        assert!(matches!(err, Error::Backpressure { .. }), "{err}");
        // Draining frees space.
        ring.drain_batch(1, |_| Ok(())).unwrap();
        ring.append(&rec).unwrap();
    }

    #[test]
    fn failed_persist_leaves_the_batch_queued() {
        let (ring, path) = new_ring("persist", 4096);
        for rec in [&b"one"[..], b"two", b"three"] {
            ring.append(rec).unwrap();
        }
        let err = ring
            .drain_batch(2, |batch| {
                assert_eq!(batch, [b"one".to_vec(), b"two".to_vec()]);
                Err(Error::Io("cold log down".into()))
            })
            .unwrap_err();
        assert!(matches!(err, Error::Io(_)), "{err}");
        // Still queued, in memory and across a crash.
        let device = Arc::new(PmemDevice::open(&path, LatencyModel::none()).unwrap());
        let recovered = PersistentRingBuffer::recover(device, RingConfig::default()).unwrap();
        assert_eq!(recovered.peek_all().unwrap().len(), 3);
        let drained = ring.drain_batch(usize::MAX, |_| Ok(())).unwrap();
        assert_eq!(drained.len(), 3);
        assert!(ring.is_empty());
    }

    #[test]
    fn oversized_record_rejected() {
        let (ring, _) = new_ring("big", 128);
        assert!(matches!(
            ring.append(&vec![0u8; 1024]),
            Err(Error::InvalidArgument(_))
        ));
    }

    #[test]
    fn recovery_replays_pending_records() {
        let p = tmp("recover");
        {
            let d = Arc::new(PmemDevice::create(&p, 1024, LatencyModel::none()).unwrap());
            let ring = PersistentRingBuffer::create(d, RingConfig::default()).unwrap();
            ring.append(b"committed-1").unwrap();
            ring.append(b"committed-2").unwrap();
            // Process "crashes" here — drop without drain.
        }
        let d = Arc::new(PmemDevice::open(&p, LatencyModel::none()).unwrap());
        let ring = PersistentRingBuffer::recover(d, RingConfig::default()).unwrap();
        let recs = ring.peek_all().unwrap();
        assert_eq!(recs, vec![b"committed-1".to_vec(), b"committed-2".to_vec()]);
    }

    #[test]
    fn recovery_truncates_torn_tail() {
        let p = tmp("torn");
        {
            let d = Arc::new(PmemDevice::create(&p, 1024, LatencyModel::none()).unwrap());
            let ring = PersistentRingBuffer::create(d.clone(), RingConfig::default()).unwrap();
            ring.append(b"good-record").unwrap();
            ring.append(b"torn-record").unwrap();
            // Corrupt the second record's payload bytes on the device,
            // then persist — simulating a torn write.
            let second_frame_off = HEADER_SIZE + FRAME_HEADER + 11 + FRAME_HEADER;
            d.write_at(second_frame_off + 2, b"XX").unwrap();
            d.persist().unwrap();
        }
        let d = Arc::new(PmemDevice::open(&p, LatencyModel::none()).unwrap());
        let ring = PersistentRingBuffer::recover(d, RingConfig::default()).unwrap();
        let recs = ring.peek_all().unwrap();
        assert_eq!(
            recs,
            vec![b"good-record".to_vec()],
            "torn tail must be dropped"
        );
    }

    #[test]
    fn unpersisted_appends_lost_without_sync_mode() {
        let p = tmp("nosync");
        {
            let d = Arc::new(PmemDevice::create(&p, 1024, LatencyModel::none()).unwrap());
            let ring = PersistentRingBuffer::create(
                d,
                RingConfig {
                    persist_each_append: false,
                },
            )
            .unwrap();
            ring.append(b"maybe-lost").unwrap();
            // No persist before "crash".
        }
        let d = Arc::new(PmemDevice::open(&p, LatencyModel::none()).unwrap());
        let ring = PersistentRingBuffer::recover(d, RingConfig::default()).unwrap();
        // Header said empty at last persist (create), so nothing replays.
        assert!(ring.peek_all().unwrap().is_empty());
    }

    #[test]
    fn empty_payload_roundtrips() {
        let (ring, _) = new_ring("empty", 256);
        ring.append(b"").unwrap();
        assert_eq!(
            ring.drain_batch(1, |_| Ok(())).unwrap(),
            vec![Vec::<u8>::new()]
        );
    }
}
