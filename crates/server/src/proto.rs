//! The TierBase wire protocol: length-prefixed binary frames carrying
//! engine operations and their completions.
//!
//! # Frame layout
//!
//! Every message — request or reply — is one *frame*:
//!
//! ```text
//! +----------------+--------+-----------------------------+
//! | len: u32 LE    | opcode | payload (len - 1 bytes)     |
//! +----------------+--------+-----------------------------+
//! ```
//!
//! `len` counts the opcode byte plus the payload, never itself. Byte
//! strings inside a payload are LEB128-varint length-prefixed; counts
//! and integers are varints too. A length prefix larger than
//! [`MAX_FRAME`] is unrecoverable (the stream cannot be resynchronized)
//! and decodes to [`Error::Corruption`]; a *body* that fails to decode
//! is recoverable — framing is intact — and servers answer it with a
//! per-slot `ERR` reply instead of dropping the connection.
//!
//! # Pipelining
//!
//! Clients write any number of request frames back-to-back before
//! reading replies. [`FrameDecoder::frames`] drains every complete
//! frame buffered so far — that vector is the *pipeline burst* the
//! server lowers onto ONE `KvEngine::apply_batch` call. Replies come
//! back one frame per request, in submission order (positional, like
//! `apply_batch` completions).
//!
//! # Cross-shard `MultiPut`
//!
//! A `MULTIPUT` frame inherits the engine's batch semantics: when the
//! serving engine is a sharded `Frontend`, pairs are scattered to their
//! shards and each shard commits independently — there is no cross-shard
//! transaction. A mid-batch shard failure therefore leaves the pairs of
//! healthy shards applied and returns the first shard error for the op.
//! The reply stream stays per-slot honest: each op in a burst gets its
//! own outcome frame, so a partial-failure burst reports exactly which
//! ops failed rather than a bogus all-or-nothing ack.
//!
//! # Backpressure
//!
//! `Error::Backpressure` travels as a dedicated `RETRY` reply carrying
//! the refusing queue's depth as a varint — a retry-after hint the
//! client surfaces via [`Error::queue_depth`]. Every other error ships
//! as `ERR` = (stable code byte from [`Error::wire_code`], detail
//! message); message-free kinds (`NotFound`, `CasMismatch`) round-trip
//! to the exact enum value so `==` comparisons work across the socket.

use bytes::Bytes;
use tb_common::{
    read_varint, write_bytes, write_varint, EngineOp, Error, Key, Lsn, OpOutcome, Result, Value,
};

/// Hard cap on one frame's body (opcode + payload). A length prefix
/// beyond this is treated as corruption, not an allocation request.
pub const MAX_FRAME: usize = 32 << 20;

// Request opcodes.
const OP_GET: u8 = 0x01;
const OP_PUT: u8 = 0x02;
const OP_DELETE: u8 = 0x03;
const OP_CAS: u8 = 0x04;
const OP_MULTIGET: u8 = 0x05;
const OP_MULTIPUT: u8 = 0x06;
const OP_SCAN: u8 = 0x07;
const OP_STATS: u8 = 0x08;
const OP_PING: u8 = 0x09;
const OP_SYNC: u8 = 0x0A;

// Reply opcodes (high bit set).
const RE_VALUE: u8 = 0x80;
const RE_DONE: u8 = 0x81;
const RE_VALUES: u8 = 0x82;
const RE_RANGE: u8 = 0x83;
const RE_ERR: u8 = 0x84;
const RE_RETRY: u8 = 0x85;
const RE_STATS_TEXT: u8 = 0x86;
const RE_PONG: u8 = 0x87;

/// One request frame's meaning.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// An engine operation; answered positionally by an outcome reply.
    Op(EngineOp),
    /// Fetch the server's metrics snapshot (Prometheus exposition).
    Stats,
    /// Liveness probe.
    Ping,
    /// Force the engine's buffered state durable (`KvEngine::sync`).
    Sync,
}

/// One reply frame's meaning.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Reply {
    /// Completion of an [`Request::Op`] or [`Request::Sync`] slot.
    Outcome(Result<OpOutcome>),
    /// Answer to [`Request::Stats`].
    StatsText(String),
    /// Answer to [`Request::Ping`].
    Pong,
}

fn read_bytes(body: &Bytes, pos: &mut usize) -> Result<Bytes> {
    // Zero-copy: the returned Bytes is a window into the burst buffer.
    let len = tb_common::read_bytes(body, pos)?.len();
    Ok(body.slice(*pos - len..*pos))
}

fn read_key(body: &Bytes, pos: &mut usize) -> Result<Key> {
    read_bytes(body, pos).map(Key::from_bytes)
}

fn read_value(body: &Bytes, pos: &mut usize) -> Result<Value> {
    read_bytes(body, pos).map(Value::from_bytes)
}

fn read_count(body: &Bytes, pos: &mut usize) -> Result<usize> {
    let n = read_varint(body, pos)? as usize;
    // Each element costs at least one byte on the wire, so a count
    // beyond the remaining payload is corrupt — reject it before any
    // allocation is sized from it.
    if n > body.len() - *pos {
        return Err(Error::Corruption(format!(
            "count {n} exceeds remaining payload ({} bytes)",
            body.len() - *pos
        )));
    }
    Ok(n)
}

/// Appends one framed request to `out` (length prefix included), so a
/// client can pack a whole pipeline burst into one write.
pub fn encode_request(req: &Request, out: &mut Vec<u8>) {
    frame(out, |out| match req {
        Request::Op(op) => encode_op(op, out),
        Request::Stats => out.push(OP_STATS),
        Request::Ping => out.push(OP_PING),
        Request::Sync => out.push(OP_SYNC),
    });
}

fn encode_op(op: &EngineOp, out: &mut Vec<u8>) {
    match op {
        EngineOp::Get(k) => {
            out.push(OP_GET);
            write_bytes(out, k.as_slice());
        }
        EngineOp::Put(k, v) => {
            out.push(OP_PUT);
            write_bytes(out, k.as_slice());
            write_bytes(out, v.as_slice());
        }
        EngineOp::Delete(k) => {
            out.push(OP_DELETE);
            write_bytes(out, k.as_slice());
        }
        EngineOp::Cas { key, expected, new } => encode_cas(out, key, expected.as_ref(), Some(new)),
        EngineOp::CasDelete { key, expected } => encode_cas(out, key, expected.as_ref(), None),
        EngineOp::MultiGet(keys) => {
            out.push(OP_MULTIGET);
            write_varint(out, keys.len() as u64);
            for k in keys {
                write_bytes(out, k.as_slice());
            }
        }
        EngineOp::MultiPut(pairs) => {
            out.push(OP_MULTIPUT);
            write_varint(out, pairs.len() as u64);
            for (k, v) in pairs {
                write_bytes(out, k.as_slice());
                write_bytes(out, v.as_slice());
            }
        }
        EngineOp::Scan { start, end, limit } => {
            out.push(OP_SCAN);
            write_bytes(out, start.as_slice());
            match end {
                Some(e) => {
                    out.push(1);
                    write_bytes(out, e.as_slice());
                }
                None => out.push(0),
            }
            write_varint(out, *limit as u64);
        }
    }
}

/// A `CAS` payload: the key, then `expected` and `new` each behind a
/// presence flag. An absent `new` is a compare-and-delete.
fn encode_cas(out: &mut Vec<u8>, key: &Key, expected: Option<&Value>, new: Option<&Value>) {
    out.push(OP_CAS);
    write_bytes(out, key.as_slice());
    write_opt_value(out, expected);
    write_opt_value(out, new);
}

/// Decodes one request frame body (opcode + payload, no length prefix).
/// Keys and values are zero-copy windows into `body`.
pub fn decode_request(body: &Bytes) -> Result<Request> {
    let opcode = *body
        .first()
        .ok_or_else(|| Error::Corruption("empty frame".into()))?;
    let mut pos = 1usize;
    let req = match opcode {
        OP_GET => Request::Op(EngineOp::Get(read_key(body, &mut pos)?)),
        OP_PUT => Request::Op(EngineOp::Put(
            read_key(body, &mut pos)?,
            read_value(body, &mut pos)?,
        )),
        OP_DELETE => Request::Op(EngineOp::Delete(read_key(body, &mut pos)?)),
        OP_CAS => {
            let key = read_key(body, &mut pos)?;
            let expected = read_opt_value(body, &mut pos)?;
            let new = read_opt_value(body, &mut pos)?;
            Request::Op(EngineOp::cas(key, expected, new))
        }
        OP_MULTIGET => {
            let n = read_count(body, &mut pos)?;
            let mut keys = Vec::with_capacity(n);
            for _ in 0..n {
                keys.push(read_key(body, &mut pos)?);
            }
            Request::Op(EngineOp::MultiGet(keys))
        }
        OP_MULTIPUT => {
            let n = read_count(body, &mut pos)?;
            let mut pairs = Vec::with_capacity(n);
            for _ in 0..n {
                pairs.push((read_key(body, &mut pos)?, read_value(body, &mut pos)?));
            }
            Request::Op(EngineOp::MultiPut(pairs))
        }
        OP_SCAN => {
            let start = read_key(body, &mut pos)?;
            let end = match read_flag(body, &mut pos)? {
                true => Some(read_key(body, &mut pos)?),
                false => None,
            };
            let limit = read_varint(body, &mut pos)? as usize;
            Request::Op(EngineOp::Scan { start, end, limit })
        }
        OP_STATS => Request::Stats,
        OP_PING => Request::Ping,
        OP_SYNC => Request::Sync,
        other => {
            return Err(Error::Corruption(format!(
                "unknown request opcode 0x{other:02x}"
            )))
        }
    };
    expect_end(body, pos)?;
    Ok(req)
}

/// Appends one framed reply to `out`, so a server can pack a burst's
/// worth of replies into one write.
pub fn encode_reply(reply: &Reply, out: &mut Vec<u8>) {
    frame(out, |out| match reply {
        Reply::Outcome(Ok(OpOutcome::Value(v))) => {
            out.push(RE_VALUE);
            write_opt_value(out, v.as_ref());
        }
        Reply::Outcome(Ok(OpOutcome::Done(lsn))) => {
            out.push(RE_DONE);
            write_varint(out, lsn.0);
        }
        Reply::Outcome(Ok(OpOutcome::Values(vs))) => {
            out.push(RE_VALUES);
            write_varint(out, vs.len() as u64);
            for v in vs {
                write_opt_value(out, v.as_ref());
            }
        }
        Reply::Outcome(Ok(OpOutcome::Range(entries))) => {
            out.push(RE_RANGE);
            write_varint(out, entries.len() as u64);
            for (k, v) in entries {
                write_bytes(out, k.as_slice());
                write_bytes(out, v.as_slice());
            }
        }
        Reply::Outcome(Err(Error::Backpressure {
            reason,
            queue_depth,
        })) => {
            out.push(RE_RETRY);
            write_varint(out, *queue_depth as u64);
            write_bytes(out, reason.as_bytes());
        }
        Reply::Outcome(Err(e)) => {
            out.push(RE_ERR);
            out.push(e.wire_code());
            write_bytes(out, e.wire_message().as_bytes());
        }
        Reply::StatsText(text) => {
            out.push(RE_STATS_TEXT);
            write_bytes(out, text.as_bytes());
        }
        Reply::Pong => out.push(RE_PONG),
    });
}

fn write_opt_value(out: &mut Vec<u8>, v: Option<&Value>) {
    match v {
        Some(v) => {
            out.push(1);
            write_bytes(out, v.as_slice());
        }
        None => out.push(0),
    }
}

/// Decodes one reply frame body. Values are zero-copy windows into
/// `body`.
pub fn decode_reply(body: &Bytes) -> Result<Reply> {
    let opcode = *body
        .first()
        .ok_or_else(|| Error::Corruption("empty frame".into()))?;
    let mut pos = 1usize;
    let reply = match opcode {
        RE_VALUE => {
            let v = read_opt_value(body, &mut pos)?;
            Reply::Outcome(Ok(OpOutcome::Value(v)))
        }
        RE_DONE => Reply::Outcome(Ok(OpOutcome::Done(Lsn(read_varint(body, &mut pos)?)))),
        RE_VALUES => {
            let n = read_count(body, &mut pos)?;
            let mut vs = Vec::with_capacity(n);
            for _ in 0..n {
                vs.push(read_opt_value(body, &mut pos)?);
            }
            Reply::Outcome(Ok(OpOutcome::Values(vs)))
        }
        RE_RANGE => {
            let n = read_count(body, &mut pos)?;
            let mut entries = Vec::with_capacity(n);
            for _ in 0..n {
                entries.push((read_key(body, &mut pos)?, read_value(body, &mut pos)?));
            }
            Reply::Outcome(Ok(OpOutcome::Range(entries)))
        }
        RE_ERR => {
            let code = *body
                .get(pos)
                .ok_or_else(|| Error::Corruption("ERR frame truncated".into()))?;
            pos += 1;
            let msg = read_bytes(body, &mut pos)?;
            let msg = String::from_utf8_lossy(&msg).into_owned();
            Reply::Outcome(Err(Error::from_wire(code, msg)))
        }
        RE_RETRY => {
            let queue_depth = read_varint(body, &mut pos)? as u32;
            let reason = read_bytes(body, &mut pos)?;
            let reason = String::from_utf8_lossy(&reason).into_owned();
            Reply::Outcome(Err(Error::Backpressure {
                reason,
                queue_depth,
            }))
        }
        RE_STATS_TEXT => {
            let text = read_bytes(body, &mut pos)?;
            Reply::StatsText(String::from_utf8_lossy(&text).into_owned())
        }
        RE_PONG => Reply::Pong,
        other => {
            return Err(Error::Corruption(format!(
                "unknown reply opcode 0x{other:02x}"
            )))
        }
    };
    expect_end(body, pos)?;
    Ok(reply)
}

fn read_flag(body: &Bytes, pos: &mut usize) -> Result<bool> {
    let b = *body
        .get(*pos)
        .ok_or_else(|| Error::Corruption("flag byte missing".into()))?;
    *pos += 1;
    match b {
        0 => Ok(false),
        1 => Ok(true),
        other => Err(Error::Corruption(format!("bad flag byte 0x{other:02x}"))),
    }
}

fn read_opt_value(body: &Bytes, pos: &mut usize) -> Result<Option<Value>> {
    match read_flag(body, pos)? {
        true => Ok(Some(read_value(body, pos)?)),
        false => Ok(None),
    }
}

fn expect_end(body: &Bytes, pos: usize) -> Result<()> {
    if pos != body.len() {
        return Err(Error::Corruption(format!(
            "{} trailing bytes after frame payload",
            body.len() - pos
        )));
    }
    Ok(())
}

fn frame(out: &mut Vec<u8>, write_body: impl FnOnce(&mut Vec<u8>)) {
    let at = out.len();
    out.extend_from_slice(&[0u8; 4]);
    write_body(out);
    let len = (out.len() - at - 4) as u32;
    out[at..at + 4].copy_from_slice(&len.to_le_bytes());
}

/// Streaming frame reassembler: feed raw socket bytes in, drain
/// complete frame bodies out.
///
/// [`FrameDecoder::frames`] returns *every* complete frame buffered so
/// far in one vector — the pipeline burst. Partial trailing bytes stay
/// buffered for the next feed, so frames may arrive fragmented down to
/// one byte at a time. All bodies drained together share one backing
/// allocation; per-frame keys/values are windows into it (one copy per
/// burst, at the reassembly boundary).
#[derive(Debug, Default)]
pub struct FrameDecoder {
    buf: Vec<u8>,
}

impl FrameDecoder {
    /// An empty decoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Buffers raw bytes read from the transport.
    pub fn feed(&mut self, data: &[u8]) {
        self.buf.extend_from_slice(data);
    }

    /// Bytes buffered but not yet drained as complete frames.
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    /// Drains every complete frame currently buffered, in arrival
    /// order. Empty vector = no complete frame yet (read more).
    ///
    /// A length prefix over [`MAX_FRAME`] is unrecoverable corruption —
    /// there is no way to find the next frame boundary — so it errors
    /// and the connection must be dropped.
    pub fn frames(&mut self) -> Result<Vec<Bytes>> {
        let mut spans = Vec::new();
        let mut pos = 0usize;
        while self.buf.len() - pos >= 4 {
            let len = u32::from_le_bytes(self.buf[pos..pos + 4].try_into().unwrap()) as usize;
            if len > MAX_FRAME {
                return Err(Error::Corruption(format!(
                    "frame length {len} exceeds max {MAX_FRAME}"
                )));
            }
            if self.buf.len() - pos - 4 < len {
                break;
            }
            spans.push((pos + 4, len));
            pos += 4 + len;
        }
        if spans.is_empty() {
            return Ok(Vec::new());
        }
        // One allocation for the whole burst; frame bodies are windows.
        let burst = Bytes::from(self.buf[..pos].to_vec());
        self.buf.drain(..pos);
        Ok(spans
            .into_iter()
            .map(|(at, len)| burst.slice(at..at + len))
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip_request(req: Request) {
        let mut wire = Vec::new();
        encode_request(&req, &mut wire);
        let mut dec = FrameDecoder::new();
        dec.feed(&wire);
        let frames = dec.frames().unwrap();
        assert_eq!(frames.len(), 1);
        assert_eq!(decode_request(&frames[0]).unwrap(), req);
        assert_eq!(dec.buffered(), 0);
    }

    #[test]
    fn requests_round_trip() {
        round_trip_request(Request::Op(EngineOp::Get(Key::from("k"))));
        round_trip_request(Request::Op(EngineOp::Put(
            Key::from("k"),
            Value::from(vec![0u8, 255, 7]),
        )));
        round_trip_request(Request::Op(EngineOp::Delete(Key::from(""))));
        round_trip_request(Request::Op(EngineOp::Cas {
            key: Key::from("k"),
            expected: None,
            new: Value::from("v"),
        }));
        round_trip_request(Request::Op(EngineOp::CasDelete {
            key: Key::from("k"),
            expected: Some(Value::from("v")),
        }));
        round_trip_request(Request::Op(EngineOp::Scan {
            start: Key::from("a"),
            end: None,
            limit: usize::MAX,
        }));
        round_trip_request(Request::Stats);
        round_trip_request(Request::Ping);
        round_trip_request(Request::Sync);
    }

    #[test]
    fn burst_is_drained_in_one_call() {
        let mut wire = Vec::new();
        for i in 0..10 {
            encode_request(
                &Request::Op(EngineOp::Get(Key::from(format!("k{i}")))),
                &mut wire,
            );
        }
        let mut dec = FrameDecoder::new();
        dec.feed(&wire);
        let frames = dec.frames().unwrap();
        assert_eq!(frames.len(), 10, "whole burst in one drain");
        // Zero-copy: every body shares the burst's single allocation.
        let base = frames[0].as_ptr() as usize;
        for f in &frames[1..] {
            let p = f.as_ptr() as usize;
            assert!(p > base && p - base < wire.len());
        }
    }

    #[test]
    fn oversized_length_prefix_is_corruption() {
        let mut dec = FrameDecoder::new();
        dec.feed(&((MAX_FRAME as u32) + 1).to_le_bytes());
        dec.feed(&[0u8; 16]);
        assert!(matches!(dec.frames(), Err(Error::Corruption(_))));
    }

    #[test]
    fn backpressure_reply_carries_depth() {
        let reply = Reply::Outcome(Err(Error::backpressure_at_depth("shard 3 queue full", 256)));
        let mut wire = Vec::new();
        encode_reply(&reply, &mut wire);
        let mut dec = FrameDecoder::new();
        dec.feed(&wire);
        let frames = dec.frames().unwrap();
        let back = decode_reply(&frames[0]).unwrap();
        let Reply::Outcome(Err(e)) = back else {
            panic!("expected error outcome, got {back:?}");
        };
        assert_eq!(e.queue_depth(), Some(256));
        assert!(e.is_retryable());
    }
}
