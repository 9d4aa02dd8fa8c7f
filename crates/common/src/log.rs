//! The one log format. Every write-ahead log in the workspace — the LSM
//! WAL segments, the cache tier's `cache.wal` and `cache.cold.wal`, the
//! replication channel's receive log and the PMem ring — is a run of
//! frames `len u32 | crc u32 | lsn u64 | payload` (little-endian, `crc`
//! over `lsn ‖ payload`), and each frame a store writes holds one
//! [`WriteRecord`].
//!
//! [`parse`] is the one reader. It tells apart the two ways a frame can
//! be invalid:
//!
//! * **Torn tail** — the partial frame a crash leaves at the end, with
//!   no valid frame after it. [`Parsed::end`] stops before it and the
//!   caller drops it.
//! * **Corruption** — an invalid frame with a valid one after it.
//!   Dropping it would drop the acknowledged writes behind it, so
//!   [`parse`] fails with [`Error::Corruption`].

use crate::{read_bytes, write_bytes, Crc32, Error, Key, Result, Value};

/// Bytes before the payload: `len u32 | crc u32 | lsn u64`.
pub const FRAME_HEADER: usize = 16;

fn frame_crc(lsn: u64, payload: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(&lsn.to_le_bytes()).update(payload);
    c.finalize()
}

/// The header of the frame carrying `payload` at `lsn`.
pub fn frame_header(lsn: u64, payload: &[u8]) -> [u8; FRAME_HEADER] {
    let mut h = [0u8; FRAME_HEADER];
    h[..4].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    h[4..8].copy_from_slice(&frame_crc(lsn, payload).to_le_bytes());
    h[8..].copy_from_slice(&lsn.to_le_bytes());
    h
}

/// One whole frame: header, then payload.
pub fn encode_frame(lsn: u64, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(FRAME_HEADER + payload.len());
    out.extend_from_slice(&frame_header(lsn, payload));
    out.extend_from_slice(payload);
    out
}

/// The complete, checksum-valid frame at `pos`: `(lsn, payload, end)`.
fn parse_frame(buf: &[u8], pos: usize) -> Option<(u64, &[u8], usize)> {
    let header = buf.get(pos..pos.checked_add(FRAME_HEADER)?)?;
    let len = u32::from_le_bytes(header[..4].try_into().ok()?) as usize;
    let crc = u32::from_le_bytes(header[4..8].try_into().ok()?);
    let lsn = u64::from_le_bytes(header[8..].try_into().ok()?);
    let start = pos + FRAME_HEADER;
    let payload = buf.get(start..start.checked_add(len)?)?;
    (frame_crc(lsn, payload) == crc).then_some((lsn, payload, start + len))
}

/// The valid frames of a log, in log order.
#[derive(Debug)]
pub struct Parsed<'a> {
    /// `(lsn, payload)` per frame.
    pub frames: Vec<(u64, &'a [u8])>,
    /// Bytes the frames cover. Short of the log's length, the rest is
    /// a torn tail.
    pub end: usize,
}

/// Parses a whole log: its frames up to a torn tail, or
/// [`Error::Corruption`] when a valid frame follows an invalid one.
pub fn parse(buf: &[u8]) -> Result<Parsed<'_>> {
    let mut frames = Vec::new();
    let mut end = 0;
    while let Some((lsn, payload, next)) = parse_frame(buf, end) {
        frames.push((lsn, payload));
        end = next;
    }
    // A byte-by-byte scan, run only on a broken log; a 1-in-2^32
    // checksum collision is the worst a false positive costs. The
    // bound is inclusive: an empty-payload frame is exactly
    // FRAME_HEADER bytes.
    let last_start = buf.len().saturating_sub(FRAME_HEADER);
    if end < buf.len() && (end + 1..=last_start).any(|pos| parse_frame(buf, pos).is_some()) {
        return Err(Error::Corruption(format!(
            "log frame at byte {end} is corrupt but valid frames follow (log is {} bytes); \
             refusing to drop acknowledged writes",
            buf.len()
        )));
    }
    Ok(Parsed { frames, end })
}

/// One write as every log stores it: `flag u8 | varint key | value`,
/// flag 0 for a put (its value runs to the end of the payload) and 1
/// for a delete.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WriteRecord {
    pub key: Key,
    /// `None` deletes the key.
    pub value: Option<Value>,
}

impl WriteRecord {
    pub fn encode(&self) -> Vec<u8> {
        let value = self.value.as_ref().map_or(&[][..], Value::as_slice);
        let mut out = Vec::with_capacity(1 + 10 + self.key.len() + value.len());
        out.push(u8::from(self.value.is_none()));
        write_bytes(&mut out, self.key.as_slice());
        out.extend_from_slice(value);
        out
    }

    pub fn decode(buf: &[u8]) -> Result<Self> {
        let (&flag, rest) = buf
            .split_first()
            .ok_or_else(|| Error::Corruption("empty write record".into()))?;
        let mut pos = 0usize;
        let key = Key::copy_from(read_bytes(rest, &mut pos)?);
        let value = match flag {
            0 => Some(Value::copy_from(&rest[pos..])),
            1 => None,
            other => return Err(Error::Corruption(format!("bad write record flag {other}"))),
        };
        Ok(Self { key, value })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn rec(key: &[u8], value: Option<&[u8]>) -> WriteRecord {
        WriteRecord {
            key: Key::copy_from(key),
            value: value.map(Value::copy_from),
        }
    }

    /// A log of `records` at LSNs 1.., and each frame's end offset.
    fn log_of(records: &[WriteRecord]) -> (Vec<u8>, Vec<usize>) {
        let mut log = Vec::new();
        let mut ends = Vec::new();
        for (i, r) in records.iter().enumerate() {
            log.extend_from_slice(&encode_frame(i as u64 + 1, &r.encode()));
            ends.push(log.len());
        }
        (log, ends)
    }

    fn decoded(parsed: &Parsed) -> Vec<WriteRecord> {
        let lsns: Vec<u64> = parsed.frames.iter().map(|f| f.0).collect();
        assert_eq!(lsns, (1..=lsns.len() as u64).collect::<Vec<_>>());
        parsed
            .frames
            .iter()
            .map(|(_, p)| WriteRecord::decode(p).unwrap())
            .collect()
    }

    /// The bytes every log holds: a put of `k` = `v1` at LSN 1, then a
    /// delete of `k` at LSN 2.
    #[test]
    fn a_put_frame_and_a_tombstone_frame_are_pinned() {
        #[rustfmt::skip]
        let pinned: [u8; 40] = [
            0x05, 0x00, 0x00, 0x00, 0xe9, 0x02, 0x67, 0x06, // len 5, crc
            0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // lsn 1
            0x00, 0x01, b'k', b'v', b'1',                   // put k = v1
            0x03, 0x00, 0x00, 0x00, 0x8b, 0xeb, 0x52, 0xf1, // len 3, crc
            0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // lsn 2
            0x01, 0x01, b'k',                               // delete k
        ];
        let records = [rec(b"k", Some(b"v1")), rec(b"k", None)];
        assert_eq!(log_of(&records).0, pinned);
        let parsed = parse(&pinned).unwrap();
        assert_eq!(parsed.end, pinned.len());
        assert_eq!(decoded(&parsed), records);
    }

    #[test]
    fn records_decode_strictly() {
        for r in [
            rec(b"", Some(&[0, 255])),
            rec(b"gone", None),
            rec(b"k", Some(b"")),
        ] {
            assert_eq!(WriteRecord::decode(&r.encode()).unwrap(), r);
        }
        for bad in [&[][..], &[2, 0], &[0, 5, b'k']] {
            assert!(matches!(
                WriteRecord::decode(bad),
                Err(Error::Corruption(_))
            ));
        }
    }

    #[test]
    fn an_empty_frame_after_a_bad_one_is_corruption() {
        let mut log = encode_frame(1, b"will-be-corrupted");
        log.extend_from_slice(&encode_frame(2, b""));
        log[FRAME_HEADER + 2] ^= 1;
        assert!(matches!(parse(&log), Err(Error::Corruption(_))));
        assert_eq!(parse(&log[..log.len() - 1]).unwrap().end, 0);
    }

    proptest! {
        /// Any truncation of a multi-frame log is a torn tail holding
        /// exactly the whole frames before the cut; a bit flip is a torn
        /// tail in the last frame and corruption anywhere before it; no
        /// damaged payload panics the record decoder.
        #[test]
        fn damaged_logs_parse_to_a_torn_tail_or_corruption(
            raw in proptest::collection::vec(
                (
                    proptest::collection::vec(any::<u8>(), 0..12),
                    proptest::option::of(proptest::collection::vec(any::<u8>(), 0..40)),
                ),
                2..8,
            ),
            cut in any::<u32>(),
            flip in any::<u32>(),
            bit in 0u8..8,
        ) {
            let records: Vec<WriteRecord> =
                raw.iter().map(|(k, v)| rec(k, v.as_deref())).collect();
            let (log, ends) = log_of(&records);
            let whole = parse(&log).unwrap();
            prop_assert_eq!(whole.end, log.len());
            prop_assert_eq!(decoded(&whole), records.clone());

            let cut = cut as usize % (log.len() + 1);
            let torn = parse(&log[..cut]).unwrap();
            let kept = ends.iter().filter(|&&e| e <= cut).count();
            prop_assert_eq!(torn.end, if kept == 0 { 0 } else { ends[kept - 1] });
            prop_assert_eq!(decoded(&torn), records[..kept].to_vec());

            let at = flip as usize % log.len();
            let mut flipped = log.clone();
            flipped[at] ^= 1 << bit;
            let hit = ends.iter().filter(|&&e| e <= at).count();
            match parse(&flipped) {
                Ok(parsed) => {
                    prop_assert_eq!(hit, records.len() - 1, "a flip before the last frame");
                    prop_assert_eq!(parsed.end, ends[hit - 1]);
                }
                Err(e) => {
                    prop_assert!(matches!(e, Error::Corruption(_)));
                    prop_assert!(hit < records.len() - 1, "a flip in the last frame");
                }
            }

            let start = if hit == 0 { FRAME_HEADER } else { ends[hit - 1] + FRAME_HEADER };
            let payload = &flipped[start.min(ends[hit])..ends[hit]];
            for len in 0..=payload.len() {
                let _ = WriteRecord::decode(&payload[..len]);
            }
        }
    }
}
