//! # tb-server — TierBase network serving
//!
//! The socket layer that takes the in-process serving stack built in
//! the rest of the workspace — pipelined `Frontend`, batched `KvEngine`
//! path, `tb-obs` telemetry — across a network boundary without losing
//! its batching wins:
//!
//! * [`proto`] — length-prefixed binary wire protocol. A streaming
//!   [`FrameDecoder`] drains every complete frame per read: that vector
//!   is the *pipeline burst*.
//! * [`Server`] — threaded TCP / Unix-socket listener. One decoded
//!   burst becomes ONE `KvEngine::apply_batch` call; replies are
//!   positional; `Error::Backpressure` maps to a retryable `RETRY`
//!   reply (with a queue-depth hint), never a dropped connection.
//! * [`ServerClient`] — pipelined client implementing `KvEngine`, so
//!   the conformance battery, `ClusterClient`, and the bench harness
//!   run over sockets unchanged. Transport failure = retryable
//!   `Error::Unavailable` + transparent reconnect on the next call.
//!
//! ```no_run
//! use std::sync::Arc;
//! use tb_common::{Key, KvEngine, Value};
//! use tb_server::{Server, ServerClient};
//!
//! # fn main() -> tb_common::Result<()> {
//! let engine: Arc<dyn KvEngine> = Arc::new(tb_lsm::LsmDb::open(
//!     tb_lsm::LsmConfig::new(std::env::temp_dir().join("tb-server-demo")),
//! )?);
//! let server = Server::bind_tcp("127.0.0.1:0", engine)?;
//! let client = ServerClient::connect_tcp(server.addr().to_string().trim_start_matches("tcp://"))?;
//! client.put(Key::from("k"), Value::from("v"))?;
//! assert_eq!(client.get(&Key::from("k"))?, Some(Value::from("v")));
//! # Ok(())
//! # }
//! ```

#![deny(unsafe_code)]

mod client;
mod conn;
pub mod proto;
mod server;
mod stats;

/// The reference-counted buffer type frames decode into (re-exported
/// so callers can name it without depending on `bytes` directly).
pub use bytes::Bytes;

pub use client::ServerClient;
pub use proto::{FrameDecoder, Reply, Request, MAX_FRAME};
pub use server::{Server, ServerAddr};
pub use stats::{ServerStats, ServerStatsSnapshot};

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use tb_common::{test_dir, Error, Key, KvEngine, Value};

    fn lsm(dir: &std::path::Path) -> Arc<dyn KvEngine> {
        Arc::new(tb_lsm::LsmDb::open(tb_lsm::LsmConfig::new(dir)).unwrap())
    }

    #[test]
    fn tcp_round_trip() {
        let dir = test_dir("tb-server-tcp");
        let server = Server::bind_tcp("127.0.0.1:0", lsm(dir.path())).unwrap();
        let ServerAddr::Tcp(addr) = *server.addr() else {
            panic!("expected tcp addr")
        };
        let client = ServerClient::connect_tcp(addr.to_string()).unwrap();
        client.ping().unwrap();
        client.put(Key::from("k"), Value::from("v")).unwrap();
        assert_eq!(client.get(&Key::from("k")).unwrap(), Some(Value::from("v")));
        assert_eq!(client.get(&Key::from("absent")).unwrap(), None);
        let stats = server.stats();
        assert!(stats.bursts >= 2);
        assert!(stats.bytes_in > 0 && stats.bytes_out > 0);
        server.stop();
    }

    #[test]
    fn unix_round_trip_and_stats_command() {
        let dir = test_dir("tb-server-unix");
        let sock = dir.path().join("tb.sock");
        let server = Server::bind_unix(&sock, lsm(&dir.path().join("db"))).unwrap();
        let client = ServerClient::connect_unix(&sock).unwrap();
        client
            .multi_put(vec![
                (Key::from("a"), Value::from("1")),
                (Key::from("b"), Value::from("2")),
            ])
            .unwrap();
        let got = client.multi_get(&[Key::from("a"), Key::from("b")]).unwrap();
        assert_eq!(got, vec![Some(Value::from("1")), Some(Value::from("2"))]);
        let text = client.stats_text().unwrap();
        assert!(text.contains("server_bursts"), "exposition:\n{text}");
        server.stop();
        assert!(!sock.exists(), "socket file removed on shutdown");
    }

    #[test]
    fn cas_mismatch_round_trips_exactly() {
        let dir = test_dir("tb-server-cas");
        let server = Server::bind_tcp("127.0.0.1:0", lsm(dir.path())).unwrap();
        let ServerAddr::Tcp(addr) = *server.addr() else {
            panic!("expected tcp addr")
        };
        let client = ServerClient::connect_tcp(addr.to_string()).unwrap();
        client.put(Key::from("k"), Value::from("v1")).unwrap();
        let err = client
            .cas(
                Key::from("k"),
                Some(&Value::from("wrong")),
                Value::from("v2"),
            )
            .unwrap_err();
        assert_eq!(err, Error::CasMismatch);
        server.stop();
    }
}
