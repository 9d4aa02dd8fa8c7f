//! The socket client: a [`KvEngine`] whose batch path is a pipelined
//! wire exchange, so everything written against the trait — the
//! conformance battery, `ClusterClient`, benches — runs over a socket
//! unchanged.

use crate::conn::Stream;
use crate::proto::{decode_reply, encode_request, FrameDecoder, Reply, Request};
use parking_lot::Mutex;
use std::fmt;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use tb_common::{BatchReadStats, EngineOp, Error, KvEngine, Lsn, OpOutcome, Result};

/// Reconnectable server address.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Target {
    Tcp(String),
    Unix(PathBuf),
}

impl fmt::Display for Target {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Target::Tcp(a) => write!(f, "tcp://{a}"),
            Target::Unix(p) => write!(f, "unix://{}", p.display()),
        }
    }
}

struct Conn {
    stream: Stream,
    dec: FrameDecoder,
}

/// A pipelined client for one `tb-server`.
///
/// [`KvEngine::apply_batch`] writes all N request frames in one burst,
/// then reads the N positional replies — the server lowers the burst
/// onto ONE engine `apply_batch`, so network pipelining and engine
/// batching are the same thing. Point methods are one-op bursts.
///
/// Transport failure surfaces as [`Error::Unavailable`] (retryable) on
/// every in-flight slot; the broken connection is dropped and the next
/// call transparently reconnects — which is what lets `ClusterClient`
/// treat a killed server process like any other failed-over node.
pub struct ServerClient {
    target: Target,
    conn: Mutex<Option<Conn>>,
    /// Highest `Done` LSN seen in replies; this client's
    /// [`KvEngine::applied_lsn`] view of the remote engine.
    max_lsn: AtomicU64,
}

impl ServerClient {
    /// Connects over TCP (`"host:port"`). Fails fast when the server is
    /// unreachable; later breakage reconnects lazily per call.
    pub fn connect_tcp(addr: impl Into<String>) -> Result<ServerClient> {
        Self::connect(Target::Tcp(addr.into()))
    }

    /// Connects over a Unix-domain socket.
    pub fn connect_unix(path: impl Into<PathBuf>) -> Result<ServerClient> {
        Self::connect(Target::Unix(path.into()))
    }

    fn connect(target: Target) -> Result<ServerClient> {
        let client = ServerClient {
            target,
            conn: Mutex::new(None),
            max_lsn: AtomicU64::new(0),
        };
        let mut guard = client.conn.lock();
        *guard = Some(Self::dial(&client.target)?);
        drop(guard);
        Ok(client)
    }

    fn dial(target: &Target) -> Result<Conn> {
        let stream = match target {
            Target::Tcp(addr) => TcpStream::connect(addr).map(Stream::Tcp),
            Target::Unix(path) => UnixStream::connect(path).map(Stream::Unix),
        }
        .map_err(|e| Error::Unavailable(format!("connect {target}: {e}")))?;
        Ok(Conn {
            stream,
            dec: FrameDecoder::new(),
        })
    }

    /// Liveness probe: one PING/PONG round trip.
    pub fn ping(&self) -> Result<()> {
        match self.rpc(&[Request::Ping])?.pop() {
            Some(Reply::Pong) => Ok(()),
            other => Err(Error::Internal(format!("PING answered with {other:?}"))),
        }
    }

    /// Fetches the server's metrics snapshot as Prometheus exposition
    /// (the wire `STATS` command).
    pub fn stats_text(&self) -> Result<String> {
        match self.rpc(&[Request::Stats])?.pop() {
            Some(Reply::StatsText(text)) => Ok(text),
            other => Err(Error::Internal(format!("STATS answered with {other:?}"))),
        }
    }

    /// One pipelined exchange: write all requests, read all replies in
    /// order. Any transport or protocol failure drops the connection
    /// (the next call redials) and reports [`Error::Unavailable`] /
    /// [`Error::Corruption`] respectively.
    fn rpc(&self, reqs: &[Request]) -> Result<Vec<Reply>> {
        let mut guard = self.conn.lock();
        if guard.is_none() {
            *guard = Some(Self::dial(&self.target)?);
        }
        let conn = guard.as_mut().expect("connection just ensured");
        let mut wire = Vec::new();
        for req in reqs {
            encode_request(req, &mut wire);
        }
        match Self::exchange(conn, &wire, reqs.len()) {
            Ok(replies) => Ok(replies),
            Err(e) => {
                // Poisoned mid-exchange: request/reply pairing is gone.
                *guard = None;
                Err(e)
            }
        }
    }

    fn exchange(conn: &mut Conn, wire: &[u8], expect: usize) -> Result<Vec<Reply>> {
        let unavailable = |e: std::io::Error| Error::Unavailable(format!("server io: {e}"));
        conn.stream.write_all(wire).map_err(unavailable)?;
        let mut replies = Vec::with_capacity(expect);
        let mut buf = vec![0u8; 64 << 10];
        loop {
            for body in conn.dec.frames()? {
                if replies.len() == expect {
                    return Err(Error::Corruption("unsolicited reply frame".into()));
                }
                replies.push(decode_reply(&body)?);
            }
            if replies.len() == expect {
                return Ok(replies);
            }
            let n = conn.stream.read(&mut buf).map_err(unavailable)?;
            if n == 0 {
                return Err(Error::Unavailable(
                    "server closed connection mid-exchange".into(),
                ));
            }
            conn.dec.feed(&buf[..n]);
        }
    }

    fn note_lsn(&self, lsn: Lsn) {
        self.max_lsn.fetch_max(lsn.0, Ordering::Relaxed);
    }
}

impl KvEngine for ServerClient {
    /// One wire burst = one server-side batch; the provided point and
    /// multi-key methods are one-op bursts.
    fn apply_batch(&self, ops: Vec<EngineOp>) -> Vec<Result<OpOutcome>> {
        if ops.is_empty() {
            return Vec::new();
        }
        let n = ops.len();
        let reqs: Vec<Request> = ops.into_iter().map(Request::Op).collect();
        match self.rpc(&reqs) {
            Ok(replies) => replies
                .into_iter()
                .map(|reply| match reply {
                    Reply::Outcome(outcome) => {
                        if let Ok(OpOutcome::Done(lsn)) = &outcome {
                            self.note_lsn(*lsn);
                        }
                        outcome
                    }
                    other => Err(Error::Internal(format!("op answered with {other:?}"))),
                })
                .collect(),
            // The whole burst's fate is unknown — every slot reports the
            // same retryable transport error.
            Err(e) => (0..n).map(|_| Err(e.clone())).collect(),
        }
    }

    fn sync(&self) -> Result<()> {
        match self.rpc(&[Request::Sync])?.pop() {
            Some(Reply::Outcome(Ok(OpOutcome::Done(lsn)))) => {
                self.note_lsn(lsn);
                Ok(())
            }
            Some(Reply::Outcome(Err(e))) => Err(e),
            other => Err(Error::Internal(format!("SYNC answered with {other:?}"))),
        }
    }

    fn applied_lsn(&self) -> Lsn {
        Lsn(self.max_lsn.load(Ordering::Relaxed))
    }

    fn batch_read_stats(&self) -> BatchReadStats {
        // The remote engine's counters are visible via STATS; this
        // client adds no read amplification of its own.
        BatchReadStats::default()
    }

    fn resident_bytes(&self) -> u64 {
        0
    }

    fn label(&self) -> String {
        format!("net({})", self.target)
    }
}
