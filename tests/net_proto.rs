//! Property-based torture of the tb-server wire protocol: every frame
//! type round-trips through encode → arbitrary re-chunking → decode;
//! truncated/garbage/oversized inputs yield clean decode errors (never
//! a panic, never a silently desynchronized stream).

use proptest::prelude::*;
use tierbase::common::{EngineOp, Error, Key, Lsn, OpOutcome, Value};
use tierbase::server::proto::{
    decode_reply, decode_request, encode_reply, encode_request, Reply, Request,
};
use tierbase::server::{Bytes, FrameDecoder, MAX_FRAME};

fn raw(max: usize) -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(any::<u8>(), 0..max)
}

fn op_strategy() -> impl Strategy<Value = EngineOp> {
    prop_oneof![
        raw(32).prop_map(|k| EngineOp::Get(Key::from(k))),
        (raw(32), raw(64)).prop_map(|(k, v)| EngineOp::Put(Key::from(k), Value::from(v))),
        raw(32).prop_map(|k| EngineOp::Delete(Key::from(k))),
        // A `Cas`, or a `CasDelete` when `new` is absent.
        (
            raw(32),
            proptest::option::of(raw(32)),
            proptest::option::of(raw(32))
        )
            .prop_map(|(k, e, n)| EngineOp::cas(
                Key::from(k),
                e.map(Value::from),
                n.map(Value::from)
            )),
        proptest::collection::vec(raw(24), 0..8)
            .prop_map(|ks| EngineOp::MultiGet(ks.into_iter().map(Key::from).collect())),
        proptest::collection::vec((raw(24), raw(24)), 0..8).prop_map(|ps| EngineOp::MultiPut(
            ps.into_iter()
                .map(|(k, v)| (Key::from(k), Value::from(v)))
                .collect()
        )),
        (raw(16), proptest::option::of(raw(16)), any::<u64>()).prop_map(|(s, e, l)| {
            EngineOp::Scan {
                start: Key::from(s),
                end: e.map(Key::from),
                limit: l as usize,
            }
        }),
    ]
}

fn request_strategy() -> impl Strategy<Value = Request> {
    prop_oneof![
        6 => op_strategy().prop_map(Request::Op),
        1 => Just(Request::Stats),
        1 => Just(Request::Ping),
        1 => Just(Request::Sync),
    ]
}

fn error_strategy() -> impl Strategy<Value = Error> {
    prop_oneof![
        Just(Error::NotFound),
        Just(Error::CasMismatch),
        ".{0,24}".prop_map(Error::Corruption),
        ".{0,24}".prop_map(Error::Io),
        ".{0,24}".prop_map(Error::InvalidArgument),
        (".{0,24}", any::<u32>()).prop_map(|(m, d)| Error::backpressure_at_depth(m, d)),
        ".{0,24}".prop_map(Error::StorageWriteFailed),
        ".{0,24}".prop_map(Error::Unavailable),
        ".{0,24}".prop_map(Error::FaultInjected),
        ".{0,24}".prop_map(Error::Internal),
    ]
}

fn reply_strategy() -> impl Strategy<Value = Reply> {
    prop_oneof![
        proptest::option::of(raw(48))
            .prop_map(|v| Reply::Outcome(Ok(OpOutcome::Value(v.map(Value::from))))),
        any::<u64>().prop_map(|l| Reply::Outcome(Ok(OpOutcome::Done(Lsn(l))))),
        proptest::collection::vec(proptest::option::of(raw(24)), 0..8).prop_map(|vs| {
            Reply::Outcome(Ok(OpOutcome::Values(
                vs.into_iter().map(|v| v.map(Value::from)).collect(),
            )))
        }),
        proptest::collection::vec((raw(24), raw(24)), 0..8).prop_map(|es| {
            Reply::Outcome(Ok(OpOutcome::Range(
                es.into_iter()
                    .map(|(k, v)| (Key::from(k), Value::from(v)))
                    .collect(),
            )))
        }),
        error_strategy().prop_map(|e| Reply::Outcome(Err(e))),
        ".{0,64}".prop_map(Reply::StatsText),
        Just(Reply::Pong),
    ]
}

/// Feeds `wire` into a decoder in chunks derived from `cuts`, draining
/// complete frames after every chunk — frames must reassemble no matter
/// where the reads split.
fn decode_chunked(wire: &[u8], cuts: &[usize]) -> Vec<Bytes> {
    let mut dec = FrameDecoder::new();
    let mut frames = Vec::new();
    let mut pos = 0;
    let mut cut_iter = cuts.iter().cycle();
    while pos < wire.len() {
        let step = (cut_iter.next().unwrap() % 7) + 1;
        let end = (pos + step).min(wire.len());
        dec.feed(&wire[pos..end]);
        frames.extend(dec.frames().expect("well-formed stream never errors"));
        pos = end;
    }
    assert_eq!(dec.buffered(), 0, "no residue after whole frames");
    frames
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 48,
        max_shrink_iters: 64,
        ..ProptestConfig::default()
    })]

    /// Requests survive encode → arbitrary split-read reassembly →
    /// decode, for every frame type, in pipelined groups.
    #[test]
    fn requests_round_trip_through_arbitrary_chunking(
        reqs in proptest::collection::vec(request_strategy(), 1..10),
        cuts in proptest::collection::vec(0usize..7, 1..12),
    ) {
        let mut wire = Vec::new();
        for r in &reqs {
            encode_request(r, &mut wire);
        }
        let frames = decode_chunked(&wire, &cuts);
        prop_assert_eq!(frames.len(), reqs.len());
        for (frame, want) in frames.iter().zip(&reqs) {
            prop_assert_eq!(&decode_request(frame).unwrap(), want);
        }
    }

    /// Replies round-trip the same way — including every error kind,
    /// with backpressure keeping its queue-depth hint.
    #[test]
    fn replies_round_trip_through_arbitrary_chunking(
        replies in proptest::collection::vec(reply_strategy(), 1..10),
        cuts in proptest::collection::vec(0usize..7, 1..12),
    ) {
        let mut wire = Vec::new();
        for r in &replies {
            encode_reply(r, &mut wire);
        }
        let frames = decode_chunked(&wire, &cuts);
        prop_assert_eq!(frames.len(), replies.len());
        for (frame, want) in frames.iter().zip(&replies) {
            prop_assert_eq!(&decode_reply(frame).unwrap(), want);
        }
    }

    /// Truncating a valid stream anywhere never panics and never
    /// invents a frame: complete prefixes decode, the tail stays
    /// buffered awaiting more bytes.
    #[test]
    fn truncation_is_clean(
        reqs in proptest::collection::vec(request_strategy(), 1..6),
        frac in 0.0f64..1.0,
    ) {
        let mut wire = Vec::new();
        for r in &reqs {
            encode_request(r, &mut wire);
        }
        let cut = ((wire.len() as f64) * frac) as usize;
        let mut dec = FrameDecoder::new();
        dec.feed(&wire[..cut]);
        let frames = dec.frames().expect("truncated valid stream is not corrupt");
        prop_assert!(frames.len() <= reqs.len());
        for (frame, want) in frames.iter().zip(&reqs) {
            prop_assert_eq!(&decode_request(frame).unwrap(), want);
        }
        // Feeding the rest completes the stream exactly.
        dec.feed(&wire[cut..]);
        let rest = dec.frames().expect("remainder completes cleanly");
        prop_assert_eq!(frames.len() + rest.len(), reqs.len());
        prop_assert_eq!(dec.buffered(), 0);
    }

    /// Arbitrary garbage never panics the decoder or the body parsers:
    /// every outcome is Ok(frames) or a clean `Corruption` error.
    #[test]
    fn garbage_never_panics(garbage in raw(256)) {
        let mut dec = FrameDecoder::new();
        dec.feed(&garbage);
        if let Ok(frames) = dec.frames() {
            for frame in frames {
                let _ = decode_request(&frame);
                let _ = decode_reply(&frame);
            }
        }
        // (Err = clean corruption report; connection would drop.)
    }

    /// A corrupted *body* inside intact framing must not desync the
    /// stream: the bad frame errors, frames after it still decode.
    #[test]
    fn body_corruption_does_not_desync(
        good in request_strategy(),
        junk in raw(24),
        trailing in request_strategy(),
    ) {
        let mut wire = Vec::new();
        encode_request(&good, &mut wire);
        // A frame whose body is junk but whose length prefix is honest.
        wire.extend_from_slice(&(junk.len() as u32).to_le_bytes());
        wire.extend_from_slice(&junk);
        encode_request(&trailing, &mut wire);

        let mut dec = FrameDecoder::new();
        dec.feed(&wire);
        let frames = dec.frames().expect("framing is intact");
        prop_assert_eq!(frames.len(), 3);
        prop_assert_eq!(&decode_request(&frames[0]).unwrap(), &good);
        let _ = decode_request(&frames[1]); // may or may not parse; must not panic
        prop_assert_eq!(&decode_request(&frames[2]).unwrap(), &trailing);
    }
}

#[test]
fn one_byte_at_a_time_reassembly() {
    let reqs = vec![
        Request::Op(EngineOp::Put(Key::from("split"), Value::from("read"))),
        Request::Op(EngineOp::MultiGet(vec![Key::from("a"), Key::from("b")])),
        Request::Ping,
    ];
    let mut wire = Vec::new();
    for r in &reqs {
        encode_request(r, &mut wire);
    }
    let mut dec = FrameDecoder::new();
    let mut frames = Vec::new();
    for byte in &wire {
        dec.feed(std::slice::from_ref(byte));
        frames.extend(dec.frames().unwrap());
    }
    assert_eq!(frames.len(), reqs.len());
    for (frame, want) in frames.iter().zip(&reqs) {
        assert_eq!(&decode_request(frame).unwrap(), want);
    }
}

#[test]
fn oversized_length_prefix_is_unrecoverable_corruption() {
    let mut dec = FrameDecoder::new();
    dec.feed(&(MAX_FRAME as u32 + 1).to_le_bytes());
    let err = dec.frames().unwrap_err();
    assert!(matches!(err, Error::Corruption(_)), "{err}");
}

#[test]
fn usize_max_scan_limit_survives_the_wire() {
    let req = Request::Op(EngineOp::Scan {
        start: Key::from(""),
        end: None,
        limit: usize::MAX,
    });
    let mut wire = Vec::new();
    encode_request(&req, &mut wire);
    let mut dec = FrameDecoder::new();
    dec.feed(&wire);
    let frames = dec.frames().unwrap();
    assert_eq!(decode_request(&frames[0]).unwrap(), req);
}
