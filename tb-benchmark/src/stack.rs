//! The system under test: one process, an engine → `Frontend` (2
//! shards, group commit, no boosting: program defaults) → `Server` on a
//! Unix socket → one `ServerClient` connection.

use crate::spec::{EngineKind, FRONTEND_SHARDS};
use crate::trace::{Layer, SpanSink, Traced};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use tb_common::{Error, KvEngine, Result};
use tb_frontend::{Frontend, FrontendConfig};
use tb_lsm::{LsmConfig, LsmDb};
use tb_server::{Server, ServerClient};
use tierbase_core::{SyncPolicy, TierBase, TierBaseConfig, WriteBackTuning};

/// Opens (or reopens) the engine a workload serves from, rooted at
/// `dir`. The flush policy is the program's own: WAL
/// `SyncPolicy::OsBuffer`, one `fdatasync` per dirty drained batch.
pub fn open_engine(kind: EngineKind, dir: &Path) -> Result<Arc<dyn KvEngine>> {
    Ok(match kind {
        EngineKind::TierInMemory { cache_bytes } => Arc::new(TierBase::open(
            TierBaseConfig::builder(dir)
                .cache_capacity(cache_bytes)
                .policy(SyncPolicy::InMemory)
                .build(),
        )?),
        EngineKind::TierWriteBack {
            cache_bytes,
            max_dirty_bytes,
        } => Arc::new(TierBase::open(
            TierBaseConfig::builder(dir)
                .cache_capacity(cache_bytes)
                .policy(SyncPolicy::WriteBack)
                .write_back(WriteBackTuning {
                    max_dirty_bytes,
                    ..WriteBackTuning::default()
                })
                .build(),
        )?),
        EngineKind::Lsm { memtable_bytes } => {
            let mut config = LsmConfig::new(dir);
            config.memtable_bytes = memtable_bytes;
            config.sst.codec = tb_compress::BlockCodec::Lz;
            Arc::new(LsmDb::open(config)?)
        }
    })
}

impl EngineKind {
    /// False for the one configuration with no durable tier, whose
    /// contents a reopen cannot bring back.
    pub fn survives_reopen(self) -> bool {
        !matches!(self, EngineKind::TierInMemory { .. })
    }
}

/// A Unix socket path must fit `sockaddr_un` (108 bytes); a path
/// relative to the working directory keeps a deep checkout from
/// overflowing it.
fn socket_path(dir: &Path) -> Result<PathBuf> {
    let sock = dir.join("s.sock");
    let short = std::env::current_dir()
        .ok()
        .and_then(|cwd| sock.strip_prefix(cwd).ok().map(Path::to_path_buf))
        .unwrap_or(sock);
    if short.as_os_str().len() > 100 {
        return Err(Error::InvalidArgument(format!(
            "socket path {} is too long for a Unix socket; pass a shorter --data-dir",
            short.display()
        )));
    }
    Ok(short)
}

/// Server, front-end and the generator's one connection over `engine`.
pub struct Stack {
    pub client: ServerClient,
    server: Server,
    frontend: Arc<Frontend>,
}

impl Stack {
    /// Serves `engine` from a socket in `dir`. With a `sink`, a
    /// [`Traced`] shim sits at both `Arc<dyn KvEngine>` seams.
    pub fn start(
        engine: Arc<dyn KvEngine>,
        dir: &Path,
        sink: Option<&Arc<SpanSink>>,
    ) -> Result<Stack> {
        let config = FrontendConfig::with_shards(FRONTEND_SHARDS);
        let (frontend, served): (Arc<Frontend>, Arc<dyn KvEngine>) = match sink {
            None => {
                let frontend = Arc::new(Frontend::start(engine, config));
                (frontend.clone(), frontend)
            }
            Some(sink) => {
                let engine = Arc::new(Traced::new(engine, Layer::Engine, sink.clone()));
                let frontend = Arc::new(Frontend::start(engine, config));
                let served = Arc::new(Traced::new(frontend.clone(), Layer::Frontend, sink.clone()));
                (frontend, served)
            }
        };
        let sock = socket_path(dir)?;
        let server = Server::bind_unix(&sock, served)?;
        let client = ServerClient::connect_unix(&sock)?;
        Ok(Stack {
            client,
            server,
            frontend,
        })
    }

    /// Stops the server and the front-end and joins their threads; the
    /// engine they served stays open with its other holders.
    pub fn stop(self) {
        drop(self.client);
        self.server.stop();
        self.frontend.shutdown();
    }
}
