//! Persistent ring buffer — the WAL-PMem design (§4.3).
//!
//! WAL records append to a fixed-size ring on the PMem device and are
//! made durable per transaction (one `persist` instead of a disk fsync,
//! beating the IOPS bottleneck). A background consumer batch-drains the
//! ring to bulk storage; producers see backpressure when the consumer
//! falls a full ring behind.
//!
//! Layout: a 24-byte header (`head u64 | tail u64 | crc u32 | format
//! u8 | 3 zero bytes`, the crc over head and tail) followed by the data
//! area. Records are [`tb_common::log`] frames, each carrying the LSN
//! the caller sequenced it at, and may wrap around the data area end.
//! Recovery parses `head..tail` with the one log parser: a torn last
//! frame only moves the in-memory tail, and an invalid frame with a
//! valid one after it is [`Error::Corruption`]. Recovery writes nothing.

use crate::device::PmemDevice;
use parking_lot::Mutex;
use std::sync::Arc;
use tb_common::log::{self, FRAME_HEADER};
use tb_common::{crc32, Error, Result};

const HEADER_SIZE: usize = 24;
/// The header byte that names this layout. Rings written before frames
/// carried an LSN have a zero there.
const RING_FORMAT: u8 = 1;

/// One queued record: the LSN it was appended at, and its payload.
pub type RingRecord = (u64, Vec<u8>);

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

    /// Whether a ring was ever formatted on `device`: [`Self::create`]
    /// persists a header whose checksum is not zero before it returns,
    /// so a device whose header bytes (as many as it has) are all zero
    /// was created but never formatted — a crash cut its creation short.
    pub fn is_formatted(device: &PmemDevice) -> Result<bool> {
        let mut hdr = vec![0u8; device.size().min(HEADER_SIZE)];
        device.read_at(0, &mut hdr)?;
        Ok(hdr.iter().any(|&b| b != 0))
    }

    /// Reopens a ring from a persisted device, validating the header and
    /// truncating at the first torn record (crash recovery). A device
    /// too small for a ring, or a header whose checksum fails, is
    /// [`Error::Corruption`], and the device is left as it was.
    pub fn recover(device: Arc<PmemDevice>, config: RingConfig) -> Result<Self> {
        if device.size() <= HEADER_SIZE + FRAME_HEADER {
            return Err(Error::Corruption(format!(
                "{}-byte device too small for a ring",
                device.size()
            )));
        }
        let mut hdr = [0u8; HEADER_SIZE];
        device.read_at(0, &mut hdr)?;
        let head = u64::from_le_bytes(hdr[0..8].try_into().unwrap());
        let tail = u64::from_le_bytes(hdr[8..16].try_into().unwrap());
        let stored_crc = u32::from_le_bytes(hdr[16..20].try_into().unwrap());
        if crc32(&hdr[0..16]) != stored_crc {
            return Err(Error::Corruption("ring header crc mismatch".into()));
        }
        if hdr[20] != RING_FORMAT {
            return Err(Error::Corruption(format!(
                "ring layout {} is not {RING_FORMAT}",
                hdr[20]
            )));
        }
        let data_len = device.size() - HEADER_SIZE;
        if tail < head || tail - head > data_len as u64 {
            return Err(Error::Corruption(format!("ring span {head}..{tail}")));
        }
        let ring = Self {
            data_len,
            device,
            state: Mutex::new(State { head, tail }),
            drain_turn: Mutex::new(()),
            config,
        };
        // A torn last frame is dropped from memory only: the next
        // append overwrites it and persists the header that says so.
        let (_, end) = ring.records(head, tail)?;
        ring.state.lock().tail = head + end as u64;
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

    /// Appends one record sequenced at `lsn`. Errors with
    /// [`Error::Backpressure`] when the consumer is a full ring behind.
    pub fn append(&self, lsn: u64, payload: &[u8]) -> Result<()> {
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
        self.write_wrapped(tail, &log::encode_frame(lsn, payload))?;
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
        persist: impl FnOnce(&[RingRecord]) -> Result<()>,
    ) -> Result<Vec<RingRecord>> {
        let _turn = self.drain_turn.lock();
        let (head, tail) = {
            let s = self.state.lock();
            (s.head, s.tail)
        };
        let mut out = self.records(head, tail)?.0;
        out.truncate(max_records);
        let head = head + out.iter().map(|r| FRAME_HEADER + r.1.len()).sum::<usize>() as u64;
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
    pub fn peek_all(&self) -> Result<Vec<RingRecord>> {
        let (head, tail) = {
            let s = self.state.lock();
            (s.head, s.tail)
        };
        Ok(self.records(head, tail)?.0)
    }

    /// The records in `head..tail`, and the bytes they cover (short of
    /// the span when its last frame is torn).
    fn records(&self, head: u64, tail: u64) -> Result<(Vec<RingRecord>, usize)> {
        let mut span = vec![0u8; (tail - head) as usize];
        self.read_wrapped(head, &mut span)?;
        let parsed = log::parse(&span)?;
        let records = parsed.frames.iter().map(|&(lsn, p)| (lsn, p.to_vec()));
        Ok((records.collect(), parsed.end))
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
        hdr[20] = RING_FORMAT;
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

    fn reopen(p: &std::path::Path) -> Result<PersistentRingBuffer> {
        let d = Arc::new(PmemDevice::open(p, LatencyModel::none()).unwrap());
        PersistentRingBuffer::recover(d, RingConfig::default())
    }

    fn payloads(records: Vec<RingRecord>) -> Vec<Vec<u8>> {
        records.into_iter().map(|(_, p)| p).collect()
    }

    #[test]
    fn fifo_order() {
        let (ring, _) = new_ring("fifo", 4096);
        for i in 0..10 {
            ring.append(i + 1, format!("record-{i}").as_bytes())
                .unwrap();
        }
        let batch = ring.drain_batch(4, |_| Ok(())).unwrap();
        assert_eq!(batch.len(), 4);
        assert_eq!(batch[0], (1, b"record-0".to_vec()));
        assert_eq!(batch[3], (4, b"record-3".to_vec()));
        let rest = ring.drain_batch(100, |_| Ok(())).unwrap();
        assert_eq!(rest.len(), 6);
        assert!(ring.is_empty());
    }

    #[test]
    fn wraparound_preserves_records() {
        let (ring, _) = new_ring("wrap", 256); // tiny: forces wrapping
        for round in 0..50 {
            let rec = format!("wraparound-payload-{round:04}");
            ring.append(round, rec.as_bytes()).unwrap();
            let got = ring.drain_batch(1, |_| Ok(())).unwrap();
            assert_eq!(got, [(round, rec.into_bytes())]);
        }
    }

    #[test]
    fn backpressure_when_full() {
        // 104 data bytes hold two 46-byte frames, not three.
        let (ring, _) = new_ring("full", 128);
        let rec = vec![7u8; 30];
        ring.append(1, &rec).unwrap();
        ring.append(2, &rec).unwrap();
        let err = ring.append(3, &rec).unwrap_err();
        assert!(matches!(err, Error::Backpressure { .. }), "{err}");
        // Draining frees space.
        ring.drain_batch(1, |_| Ok(())).unwrap();
        ring.append(3, &rec).unwrap();
    }

    #[test]
    fn failed_persist_leaves_the_batch_queued() {
        let (ring, path) = new_ring("persist", 4096);
        for (lsn, rec) in [&b"one"[..], b"two", b"three"].into_iter().enumerate() {
            ring.append(lsn as u64 + 1, rec).unwrap();
        }
        let err = ring
            .drain_batch(2, |batch| {
                assert_eq!(batch, [(1, b"one".to_vec()), (2, b"two".to_vec())]);
                Err(Error::Io("cold log down".into()))
            })
            .unwrap_err();
        assert!(matches!(err, Error::Io(_)), "{err}");
        // Still queued, in memory and across a crash.
        assert_eq!(reopen(&path).unwrap().peek_all().unwrap().len(), 3);
        let drained = ring.drain_batch(usize::MAX, |_| Ok(())).unwrap();
        assert_eq!(drained.len(), 3);
        assert!(ring.is_empty());
    }

    #[test]
    fn oversized_record_rejected() {
        let (ring, _) = new_ring("big", 128);
        assert!(matches!(
            ring.append(1, &vec![0u8; 1024]),
            Err(Error::InvalidArgument(_))
        ));
    }

    #[test]
    fn recovery_replays_pending_records() {
        let (ring, p) = new_ring("recover", 1024);
        ring.append(7, b"committed-1").unwrap();
        ring.append(9, b"committed-2").unwrap();
        // Process "crashes" here — drop without drain.
        drop(ring);
        assert_eq!(
            reopen(&p).unwrap().peek_all().unwrap(),
            vec![(7, b"committed-1".to_vec()), (9, b"committed-2".to_vec())]
        );
    }

    #[test]
    fn only_a_device_never_formatted_reads_as_unformatted() {
        let p = tmp("formatted");
        let d = PmemDevice::create(&p, 1024, LatencyModel::none()).unwrap();
        assert!(!PersistentRingBuffer::is_formatted(&d).unwrap());
        let d = Arc::new(d);
        PersistentRingBuffer::create(d.clone(), RingConfig::default()).unwrap();
        assert!(PersistentRingBuffer::is_formatted(&d).unwrap());
        // An empty ring's header is (0, 0, crc): the checksum is what
        // tells it from a zeroed device.
        let mut hdr = [0u8; HEADER_SIZE];
        d.read_at(0, &mut hdr).unwrap();
        assert_eq!(hdr[..16], [0; 16]);
        // A flipped header byte is Corruption, and recovery leaves the
        // device as it found it.
        hdr[3] ^= 0x40;
        d.write_at(0, &hdr).unwrap();
        d.persist().unwrap();
        let before = std::fs::read(&p).unwrap();
        let d = Arc::new(PmemDevice::open(&p, LatencyModel::none()).unwrap());
        assert!(PersistentRingBuffer::is_formatted(&d).unwrap());
        assert!(matches!(
            PersistentRingBuffer::recover(d, RingConfig::default()),
            Err(Error::Corruption(_))
        ));
        assert_eq!(std::fs::read(&p).unwrap(), before);
        // Shorter than a header: zeros were never formatted, anything
        // else cannot be recovered.
        for (bytes, formatted) in [(vec![], false), (vec![0; 10], false), (vec![0, 9], true)] {
            std::fs::write(&p, &bytes).unwrap();
            let d = PmemDevice::open(&p, LatencyModel::none()).unwrap();
            assert_eq!(PersistentRingBuffer::is_formatted(&d).unwrap(), formatted);
            assert!(matches!(
                PersistentRingBuffer::recover(Arc::new(d), RingConfig::default()),
                Err(Error::Corruption(_))
            ));
        }
    }

    #[test]
    fn a_ring_in_the_old_layout_is_corruption() {
        // The layout before frames carried an LSN: a valid header with
        // no format byte, then one `len u32 | crc u32 | payload` frame.
        let p = tmp("old-layout");
        let mut image = vec![0u8; 1024];
        let payload = b"written-by-the-old-layout";
        let frame_len = (8 + payload.len()) as u64;
        image[8..16].copy_from_slice(&frame_len.to_le_bytes());
        let crc = crc32(&image[..16]);
        image[16..20].copy_from_slice(&crc.to_le_bytes());
        image[24..28].copy_from_slice(&(payload.len() as u32).to_le_bytes());
        image[28..32].copy_from_slice(&crc32(payload).to_le_bytes());
        image[32..32 + payload.len()].copy_from_slice(payload);
        std::fs::write(&p, &image).unwrap();
        assert!(matches!(reopen(&p), Err(Error::Corruption(_))));
        assert_eq!(std::fs::read(&p).unwrap(), image, "recovery wrote");
    }

    #[test]
    fn a_bad_frame_before_a_valid_one_fails_recovery() {
        let (ring, p) = new_ring("mid-corrupt", 1024);
        ring.append(1, b"first-record").unwrap();
        ring.append(2, b"second-record").unwrap();
        drop(ring);
        // One flipped payload byte in the first frame: the second one,
        // acknowledged, follows it.
        let mut image = std::fs::read(&p).unwrap();
        image[HEADER_SIZE + FRAME_HEADER + 3] ^= 0x01;
        std::fs::write(&p, &image).unwrap();
        assert!(matches!(reopen(&p), Err(Error::Corruption(_))));
        assert_eq!(std::fs::read(&p).unwrap(), image, "recovery wrote");
    }

    #[test]
    fn recovery_truncates_torn_tail() {
        let p = tmp("torn");
        {
            let d = Arc::new(PmemDevice::create(&p, 1024, LatencyModel::none()).unwrap());
            let ring = PersistentRingBuffer::create(d.clone(), RingConfig::default()).unwrap();
            ring.append(1, b"good-record").unwrap();
            ring.append(2, b"torn-record").unwrap();
            // Corrupt the second record's payload bytes on the device,
            // then persist — simulating a torn write.
            let second_frame_off = HEADER_SIZE + FRAME_HEADER + 11 + FRAME_HEADER;
            d.write_at(second_frame_off + 2, b"XX").unwrap();
            d.persist().unwrap();
        }
        let image = std::fs::read(&p).unwrap();
        // Recovered twice, the same records, and the device unchanged:
        // the torn frame leaves memory only.
        for _ in 0..2 {
            let ring = reopen(&p).unwrap();
            assert_eq!(
                ring.peek_all().unwrap(),
                vec![(1, b"good-record".to_vec())],
                "torn tail must be dropped"
            );
            drop(ring);
            assert_eq!(std::fs::read(&p).unwrap(), image, "recovery wrote");
        }
        // The next append overwrites the torn frame.
        let ring = reopen(&p).unwrap();
        ring.append(3, b"after-recovery").unwrap();
        drop(ring);
        assert_eq!(
            payloads(reopen(&p).unwrap().peek_all().unwrap()),
            [b"good-record".to_vec(), b"after-recovery".to_vec()]
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
            ring.append(1, b"maybe-lost").unwrap();
            // No persist before "crash".
        }
        // Header said empty at last persist (create), so nothing replays.
        assert!(reopen(&p).unwrap().peek_all().unwrap().is_empty());
    }

    #[test]
    fn empty_payload_roundtrips() {
        let (ring, _) = new_ring("empty", 256);
        ring.append(4, b"").unwrap();
        assert_eq!(ring.drain_batch(1, |_| Ok(())).unwrap(), [(4, vec![])]);
    }
}
