//! The aggregation server: acceptor → per-connection threads that fold
//! into and serve from locked shard maps, with flat atomic persistence and
//! warm restart.

use std::collections::HashMap;
use std::io::Write as _;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Duration;

use cobra_isa::CodeImage;
use cobra_store::{image_hash, read_snapshot_file, Snapshot, Store, StoreKey};

use crate::proto::{encode_frame, read_frame, send_frame, write_frame, Request, Response};
use crate::{shard_for, FleetStats};

/// How long a connection may sit idle between requests before the server
/// reclaims it.
const CONN_TIMEOUT: Duration = Duration::from_secs(30);

/// Server configuration.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Shard count: independently locked key maps; keys are split across
    /// them by [`shard_for`].
    pub shards: usize,
    /// Persistence root (one `<key>.jsonl` per key plus `<key>.image`
    /// sidecars). `None` keeps all state in memory.
    pub dir: Option<PathBuf>,
    /// Serving-time aging policy: decisions/winners whose
    /// re-confirmation debt reaches this many runs are withheld from
    /// seeds (the fold state keeps them, so the debt survives restarts).
    pub max_age_runs: Option<u64>,
}

impl Default for FleetConfig {
    fn default() -> FleetConfig {
        FleetConfig {
            shards: 4,
            dir: None,
            max_age_runs: None,
        }
    }
}

/// Shared atomic counters behind [`FleetStats`].
#[derive(Default)]
struct Counters {
    uploads: AtomicU64,
    upload_rejects: AtomicU64,
    seed_requests: AtomicU64,
    seed_hits: AtomicU64,
    frames_rejected: AtomicU64,
    aged_decisions: AtomicU64,
    aged_winners: AtomicU64,
    verify_dropped: AtomicU64,
    served_unverified: AtomicU64,
    persist_errors: AtomicU64,
    keys: AtomicU64,
    runs_total: AtomicU64,
}

impl Counters {
    fn snapshot(&self, shards: usize) -> FleetStats {
        FleetStats {
            uploads: self.uploads.load(Ordering::Relaxed),
            upload_rejects: self.upload_rejects.load(Ordering::Relaxed),
            seed_requests: self.seed_requests.load(Ordering::Relaxed),
            seed_hits: self.seed_hits.load(Ordering::Relaxed),
            frames_rejected: self.frames_rejected.load(Ordering::Relaxed),
            aged_decisions: self.aged_decisions.load(Ordering::Relaxed),
            aged_winners: self.aged_winners.load(Ordering::Relaxed),
            verify_dropped: self.verify_dropped.load(Ordering::Relaxed),
            served_unverified: self.served_unverified.load(Ordering::Relaxed),
            persist_errors: self.persist_errors.load(Ordering::Relaxed),
            keys: self.keys.load(Ordering::Relaxed),
            runs_total: self.runs_total.load(Ordering::Relaxed),
            shards: shards as u64,
        }
    }
}

/// Per-key state, owned by the shard map the key hashes to.
struct KeyState {
    /// Unfiltered commutative fold of every upload (plus warm-restart
    /// state). Aging and verification apply at serve time only, so the
    /// accumulator stays a pure function of the upload multiset.
    acc: Snapshot,
    image: Option<CodeImage>,
    /// The seed reply for `acc` and `image` as they stand: built by the
    /// first fetch after a fold, dropped by the next fold.
    served: Option<ServedSeed>,
}

impl KeyState {
    fn new(acc: Snapshot, image: Option<CodeImage>) -> KeyState {
        KeyState {
            acc,
            image,
            served: None,
        }
    }
}

/// One key's seed reply: the encoded `Response::Seed` frame, and what
/// building it withheld, which every serve of the frame counts again.
struct ServedSeed {
    frame: Arc<[u8]>,
    aged_decisions: u64,
    aged_winners: u64,
    verify_dropped: u64,
    served_unverified: u64,
}

impl ServedSeed {
    /// Age-filter the accumulator, drop every decision/winner head
    /// `check_seed` rejects, and encode the reply.
    fn build(cfg: &FleetConfig, acc: &Snapshot, image: Option<&CodeImage>) -> Result<Self, String> {
        let (mut seed, aged_decisions, aged_winners) = match cfg.max_age_runs {
            Some(n) => acc.age_filtered(n),
            None => (acc.clone(), 0, 0),
        };
        let (mut verify_dropped, mut served_unverified) = (0, 0);
        match image {
            Some(img) => {
                let before = seed.decisions.len() + seed.winners.len();
                seed.decisions
                    .retain(|d| cobra_verify::check_seed(img, d.loop_head).is_ok());
                seed.winners
                    .retain(|w| cobra_verify::check_seed(img, w.loop_head).is_ok());
                verify_dropped = (before - seed.decisions.len() - seed.winners.len()) as u64;
            }
            None => served_unverified = 1,
        }
        let frame = encode_frame(&Response::Seed {
            snapshot: Some(seed),
        })?;
        Ok(ServedSeed {
            frame: frame.into(),
            aged_decisions,
            aged_winners,
            verify_dropped,
            served_unverified,
        })
    }

    /// Count one serve of this frame, as a build for it alone would.
    fn count(&self, counters: &Counters) {
        counters
            .aged_decisions
            .fetch_add(self.aged_decisions, Ordering::Relaxed);
        counters
            .aged_winners
            .fetch_add(self.aged_winners, Ordering::Relaxed);
        counters
            .verify_dropped
            .fetch_add(self.verify_dropped, Ordering::Relaxed);
        counters
            .served_unverified
            .fetch_add(self.served_unverified, Ordering::Relaxed);
        counters.seed_hits.fetch_add(1, Ordering::Relaxed);
    }
}

/// What the connection threads share. A shard is the keys [`shard_for`]
/// sends to it, behind their own lock.
struct Shared {
    cfg: FleetConfig,
    counters: Counters,
    shards: Vec<Mutex<HashMap<StoreKey, KeyState>>>,
}

impl Shared {
    /// Lock the shard owning `key`, for one fold-and-persist or one seed
    /// fetch. A fold validates before it writes and a seed build stores
    /// its frame only once the frame is whole, so the map is whole even if
    /// a thread died holding the lock.
    fn shard(&self, key: &StoreKey) -> MutexGuard<'_, HashMap<StoreKey, KeyState>> {
        let shard = &self.shards[shard_for(key, self.shards.len())];
        shard.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// A running aggregation server. Dropping without [`FleetServer::shutdown`]
/// leaks the listener thread for the rest of the process (fine for a CLI
/// that serves until killed; tests shut down).
pub struct FleetServer {
    addr: SocketAddr,
    shared: Arc<Shared>,
    stopping: Arc<AtomicBool>,
    acceptor: JoinHandle<()>,
}

impl FleetServer {
    /// Bind `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port), load any
    /// persisted shard state, and start serving.
    pub fn start(addr: impl ToSocketAddrs, cfg: FleetConfig) -> Result<FleetServer, String> {
        let shards = cfg.shards.max(1);
        let listener = TcpListener::bind(addr).map_err(|e| format!("bind failed: {e}"))?;
        let addr = listener
            .local_addr()
            .map_err(|e| format!("local_addr failed: {e}"))?;
        let shared = Arc::new(Shared {
            cfg,
            counters: Counters::default(),
            shards: (0..shards).map(|_| Mutex::default()).collect(),
        });

        // Warm restart: every persisted key goes to its owning shard. A
        // key's state is `<stem>.jsonl` and nothing else, as `Store::load`
        // demands: a copy under another name is not a second key.
        if let Some(dir) = &shared.cfg.dir {
            let counters = &shared.counters;
            let store = Store::new(dir);
            for path in store.snapshot_paths() {
                let report = read_snapshot_file(&path, None);
                let Some(acc) = report.snapshot else { continue };
                if path != store.path_for(&acc.key) {
                    continue;
                }
                let image = load_image_sidecar(&image_path(dir, &acc.key), acc.key.image_hash);
                counters.keys.fetch_add(1, Ordering::Relaxed);
                counters.runs_total.fetch_add(acc.runs, Ordering::Relaxed);
                let key = acc.key;
                shared.shard(&key).insert(key, KeyState::new(acc, image));
            }
        }

        let stopping = Arc::new(AtomicBool::new(false));
        let acceptor = {
            let stopping = Arc::clone(&stopping);
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || {
                for conn in listener.incoming() {
                    if stopping.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = conn else { continue };
                    let shared = Arc::clone(&shared);
                    std::thread::spawn(move || serve_connection(stream, &shared));
                }
            })
        };

        Ok(FleetServer {
            addr,
            shared,
            stopping,
            acceptor,
        })
    }

    /// The bound address (with the real port when started on port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Current counters, as a `Stats` request would see them.
    pub fn stats(&self) -> FleetStats {
        self.shared.counters.snapshot(self.shared.shards.len())
    }

    /// Stop accepting and join the acceptor. An upload is folded and
    /// persisted before its reply is written, so every replied-to upload
    /// is on disk whenever this is called.
    pub fn shutdown(self) {
        self.stopping.store(true, Ordering::SeqCst);
        // Unblock the accept loop.
        let _ = TcpStream::connect(self.addr);
        let _ = self.acceptor.join();
    }
}

/// One connection's request/response loop. Any frame error counts and
/// closes the connection; the server lives on.
fn serve_connection(mut stream: TcpStream, shared: &Shared) {
    let counters = &shared.counters;
    let _ = stream.set_read_timeout(Some(CONN_TIMEOUT));
    let _ = stream.set_nodelay(true);
    let mut reader = std::io::BufReader::new(match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    });
    loop {
        let req: Request = match read_frame(&mut reader) {
            Ok(Some(r)) => r,
            Ok(None) => return, // clean EOF
            Err(_) => {
                counters.frames_rejected.fetch_add(1, Ordering::Relaxed);
                return;
            }
        };
        let sent = match req {
            Request::Stats => write_frame(
                &mut stream,
                &Response::Stats(counters.snapshot(shared.shards.len())),
            ),
            Request::Upload {
                snapshot,
                image_words,
            } => write_frame(&mut stream, &fold_upload(shared, &snapshot, image_words)),
            Request::FetchSeed { key } => {
                serve_seed(shared, &key).and_then(|frame| send_frame(&mut stream, &frame))
            }
        };
        if sent.is_err() {
            return;
        }
    }
}

/// Fold one upload into its key's accumulator and persist the new state,
/// under the shard's lock; the reply is encoded after it is dropped.
fn fold_upload(shared: &Shared, snapshot: &Snapshot, image_words: Option<Vec<u64>>) -> Response {
    let (cfg, counters) = (&shared.cfg, &shared.counters);
    let reject = |detail: String| {
        counters.upload_rejects.fetch_add(1, Ordering::Relaxed);
        Response::Err { detail }
    };
    let key = snapshot.key;
    let image = match image_words {
        Some(words) => {
            let img = CodeImage::from_words(words, Default::default());
            if image_hash(&img) != key.image_hash {
                return reject(format!(
                    "uploaded image words hash {:016x}, key says {:016x}",
                    image_hash(&img),
                    key.image_hash
                ));
            }
            Some(img)
        }
        None => None,
    };
    let mut state = shared.shard(&key);
    let is_new = !state.contains_key(&key);
    let ks = state
        .entry(key)
        .or_insert_with(|| KeyState::new(Snapshot::empty(key), None));
    if let Err(e) = ks.acc.fold_unordered(snapshot) {
        // The accumulator is as it was, and so is its served seed; a key
        // enters the map only with its first accepted upload.
        if is_new {
            state.remove(&key);
        }
        return reject(e);
    }
    // A new image only ever arrives with a fold, so this one drop covers
    // both things a seed is built from.
    ks.served = None;
    let image_is_new = ks.image.is_none() && image.is_some();
    if image_is_new {
        ks.image = image;
    }
    if is_new {
        counters.keys.fetch_add(1, Ordering::Relaxed);
    }
    counters.uploads.fetch_add(1, Ordering::Relaxed);
    counters
        .runs_total
        .fetch_add(snapshot.runs, Ordering::Relaxed);
    if let Some(dir) = &cfg.dir {
        let store = Store::new(dir);
        if let Err(e) = store.save(&ks.acc) {
            counters.persist_errors.fetch_add(1, Ordering::Relaxed);
            return Response::Err {
                detail: format!("state folded but not persisted: {e}"),
            };
        }
        if image_is_new {
            if let Some(img) = &ks.image {
                if write_image_sidecar(&image_path(dir, &key), img).is_err() {
                    counters.persist_errors.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
    }
    Response::UploadOk {
        runs_total: ks.acc.runs,
        records: ks.acc.record_count() as u64,
    }
}

/// The seed reply frame for one key, built under the shard's lock only
/// when the key holds none (no fetch since its last fold); the caller
/// writes it after the lock is gone. An encode error is not kept: the
/// next fetch tries again.
fn serve_seed(shared: &Shared, key: &StoreKey) -> Result<Arc<[u8]>, String> {
    let counters = &shared.counters;
    counters.seed_requests.fetch_add(1, Ordering::Relaxed);
    let mut state = shared.shard(key);
    let Some(ks) = state.get_mut(key) else {
        drop(state);
        return encode_frame(&Response::Seed { snapshot: None }).map(Arc::from);
    };
    let served = match &mut ks.served {
        Some(served) => served,
        none => none.insert(ServedSeed::build(&shared.cfg, &ks.acc, ks.image.as_ref())?),
    };
    served.count(counters);
    Ok(Arc::clone(&served.frame))
}

/// Image sidecar path for a key.
fn image_path(dir: &Path, key: &StoreKey) -> PathBuf {
    dir.join(format!("{}.image", key.file_stem()))
}

/// Persist image words (hex, one per line) via temp-file + rename, like
/// snapshot files.
fn write_image_sidecar(path: &Path, image: &CodeImage) -> Result<(), String> {
    let main = &image.words()[..image.main_len() as usize];
    let mut text = String::with_capacity(main.len() * 17);
    for w in main {
        text.push_str(&format!("{w:016x}\n"));
    }
    let tmp = path.with_extension("image.tmp");
    (|| -> std::io::Result<()> {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(text.as_bytes())?;
        f.flush()
    })()
    .map_err(|e| format!("cannot write {}: {e}", tmp.display()))?;
    std::fs::rename(&tmp, path).map_err(|e| {
        let _ = std::fs::remove_file(&tmp);
        format!("cannot commit {}: {e}", path.display())
    })
}

/// Load an image sidecar; `None` on any damage or hash mismatch (the key
/// just serves unverified until a client re-uploads the words).
fn load_image_sidecar(path: &Path, want_hash: u64) -> Option<CodeImage> {
    let text = std::fs::read_to_string(path).ok()?;
    let mut words = Vec::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        words.push(u64::from_str_radix(line, 16).ok()?);
    }
    let img = CodeImage::from_words(words, Default::default());
    (image_hash(&img) == want_hash).then_some(img)
}
