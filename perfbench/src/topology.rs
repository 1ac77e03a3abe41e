//! The serving topologies, stood up in-process on loopback with serving
//! defaults (`ServerConfig::new` / `RouterConfig::new`; only the role
//! knobs a topology needs — WAL directory, shard role, follower
//! address — are set).

use skimmed_sketch::SkimmedSchema;
use ss_cluster::{Router, RouterConfig};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;
use stream_durability::WalConfig;
use stream_server::{Server, ServerConfig};

/// Boxed error for set-up and tear-down paths.
pub type BoxError = Box<dyn std::error::Error + Send + Sync>;

/// A directory under the benchmark's output directory, removed on drop.
#[derive(Debug)]
pub struct ScratchDir {
    path: PathBuf,
}

impl ScratchDir {
    /// Creates a fresh, empty directory under `parent`.
    pub fn new(parent: &Path, label: &str) -> std::io::Result<ScratchDir> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        // ordering: a unique-name counter; it publishes no other data.
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let path = parent.join(format!("tmp-{}-{label}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path)?;
        Ok(ScratchDir { path })
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// One in-memory node with serving defaults (`ssketch serve`).
pub fn single_node(schema: &Arc<SkimmedSchema>) -> std::io::Result<Server> {
    Server::bind("127.0.0.1:0", ServerConfig::new(schema.clone()))
}

/// A WAL-backed node with no follower: the same sequenced write path as
/// a replicated primary minus the replication ack gate.
pub fn shadow_node(schema: &Arc<SkimmedSchema>, dir: &Path) -> std::io::Result<Server> {
    let mut config = ServerConfig::new(schema.clone());
    config.wal = Some(WalConfig::new(dir));
    Server::bind("127.0.0.1:0", config)
}

/// A router in front of one WAL-backed primary shard with one follower:
/// every sequenced ack waits for the follower (the replication ack gate).
pub struct Replicated {
    /// The primary shard.
    pub primary: Server,
    /// The follower tailing the primary's WAL.
    pub follower: Server,
    /// The client-facing router.
    pub router: Router,
    _dir: ScratchDir,
}

impl Replicated {
    /// Binds primary, follower and router under a fresh scratch
    /// directory in `parent`, then waits until the follower has had time
    /// to attach (a few of its default poll periods), so the ack gate is
    /// engaged from the first measured batch.
    pub fn start(schema: &Arc<SkimmedSchema>, parent: &Path) -> Result<Replicated, BoxError> {
        let dir = ScratchDir::new(parent, "replicated")?;
        let node = |sub: &str, follower_of: Option<String>| {
            let mut config = ServerConfig::new(schema.clone());
            config.wal = Some(WalConfig::new(dir.path().join(sub)));
            config.shard = true;
            config.follower_of = follower_of;
            Server::bind("127.0.0.1:0", config)
        };
        let primary = node("primary", None)?;
        let follower = node("follower", Some(primary.local_addr().to_string()))?;
        let mut config = RouterConfig::new(vec![primary.local_addr().to_string()]);
        config.followers = vec![follower.local_addr().to_string()];
        let router = Router::bind("127.0.0.1:0", config).map_err(|e| format!("router: {e:?}"))?;
        let poll = ServerConfig::new(schema.clone()).replication_poll;
        std::thread::sleep(poll * 3 + Duration::from_millis(20));
        Ok(Replicated {
            primary,
            follower,
            router,
            _dir: dir,
        })
    }

    /// Stops router, follower and primary (in that order) and removes
    /// their WAL directories.
    pub fn stop(self) -> Result<(), BoxError> {
        self.router
            .shutdown()
            .map_err(|e| format!("router shutdown: {e:?}"))?;
        self.follower.shutdown()?;
        self.primary.shutdown()?;
        Ok(())
    }
}
