//! The aggregation server: acceptor → per-connection threads that fold
//! into and serve from one locked state, with flat atomic persistence and
//! warm restart.

use std::collections::HashMap;
use std::io::Write as _;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Duration;

use cobra_isa::CodeImage;
use cobra_store::{image_hash, read_snapshot_file, Snapshot, Store, StoreKey};

use crate::proto::{encode_frame, read_frame, send_frame, write_frame, Request, Response};
use crate::FleetStats;

/// How long a connection may sit idle between requests before the server
/// reclaims it.
const CONN_TIMEOUT: Duration = Duration::from_secs(30);

/// Server configuration.
#[derive(Debug, Clone, Default)]
pub struct FleetConfig {
    /// Persistence root (one `<key>.jsonl` per key plus `<key>.image`
    /// sidecars). `None` keeps all state in memory.
    pub dir: Option<PathBuf>,
    /// Serving-time aging policy: decisions/winners whose
    /// re-confirmation debt reaches this many runs are withheld from
    /// seeds (the fold state keeps them, so the debt survives restarts).
    pub max_age_runs: Option<u64>,
}

/// One key's state in the server's map.
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
    fn count(&self, stats: &mut FleetStats) {
        stats.aged_decisions += self.aged_decisions;
        stats.aged_winners += self.aged_winners;
        stats.verify_dropped += self.verify_dropped;
        stats.served_unverified += self.served_unverified;
        stats.seed_hits += 1;
    }
}

/// What the connection threads share: the configuration, and every key
/// with the server's counters behind one lock.
struct Shared {
    cfg: FleetConfig,
    state: Mutex<State>,
}

/// Every key's state and the counters a `Stats` request serves. `keys` and
/// `runs_total` are not counted: [`State::stats`] reads them off the map.
#[derive(Default)]
struct State {
    keys: HashMap<StoreKey, KeyState>,
    stats: FleetStats,
}

impl State {
    /// The counters as a `Stats` request sees them.
    fn stats(&self) -> FleetStats {
        let runs = self.keys.values().map(|ks| ks.acc.runs);
        FleetStats {
            keys: self.keys.len() as u64,
            runs_total: runs.fold(0, u64::saturating_add),
            ..self.stats.clone()
        }
    }
}

impl Shared {
    /// Lock the state, for one fold-and-persist, one seed fetch or one
    /// stats read. A fold validates before it writes and a seed build
    /// stores its frame only once the frame is whole, so the state is whole
    /// even if a thread died holding the lock.
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
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
    /// persisted state, and start serving.
    pub fn start(addr: impl ToSocketAddrs, cfg: FleetConfig) -> Result<FleetServer, String> {
        let listener = TcpListener::bind(addr).map_err(|e| format!("bind failed: {e}"))?;
        let addr = listener
            .local_addr()
            .map_err(|e| format!("local_addr failed: {e}"))?;
        let shared = Arc::new(Shared {
            cfg,
            state: Mutex::default(),
        });

        // Warm restart: every persisted key goes into the map. A key's
        // state is `<stem>.jsonl` and nothing else, as `Store::load`
        // demands: a copy under another name is not a second key.
        if let Some(dir) = &shared.cfg.dir {
            let mut state = shared.lock();
            let store = Store::new(dir);
            for path in store.snapshot_paths() {
                let report = read_snapshot_file(&path, None);
                let Some(acc) = report.snapshot else { continue };
                if path != store.path_for(&acc.key) {
                    continue;
                }
                let image = load_image_sidecar(&image_path(dir, &acc.key), acc.key.image_hash);
                state.keys.insert(acc.key, KeyState::new(acc, image));
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
        self.shared.lock().stats()
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
                shared.lock().stats.frames_rejected += 1;
                return;
            }
        };
        let sent = match req {
            Request::Stats => {
                let stats = shared.lock().stats();
                write_frame(&mut stream, &Response::Stats(stats))
            }
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
/// under the lock; the reply is encoded after it is dropped.
fn fold_upload(shared: &Shared, snapshot: &Snapshot, image_words: Option<Vec<u64>>) -> Response {
    let key = snapshot.key;
    let image = match image_words {
        Some(words) => {
            let img = CodeImage::from_words(words, Default::default());
            if image_hash(&img) != key.image_hash {
                shared.lock().stats.upload_rejects += 1;
                return Response::Err {
                    detail: format!(
                        "uploaded image words hash {:016x}, key says {:016x}",
                        image_hash(&img),
                        key.image_hash
                    ),
                };
            }
            Some(img)
        }
        None => None,
    };
    let mut state = shared.lock();
    let State { keys, stats } = &mut *state;
    let is_new = !keys.contains_key(&key);
    let ks = keys
        .entry(key)
        .or_insert_with(|| KeyState::new(Snapshot::empty(key), None));
    if let Err(detail) = ks.acc.fold_unordered(snapshot) {
        // The accumulator is as it was, and so is its served seed; a key
        // enters the map only with its first accepted upload.
        if is_new {
            keys.remove(&key);
        }
        stats.upload_rejects += 1;
        return Response::Err { detail };
    }
    // A new image only ever arrives with a fold, so this one drop covers
    // both things a seed is built from.
    ks.served = None;
    let image_is_new = ks.image.is_none() && image.is_some();
    if image_is_new {
        ks.image = image;
    }
    stats.uploads += 1;
    if let Some(dir) = &shared.cfg.dir {
        let store = Store::new(dir);
        if let Err(e) = store.save(&ks.acc) {
            stats.persist_errors += 1;
            return Response::Err {
                detail: format!("state folded but not persisted: {e}"),
            };
        }
        if image_is_new {
            if let Some(img) = &ks.image {
                if write_image_sidecar(&image_path(dir, &key), img).is_err() {
                    stats.persist_errors += 1;
                }
            }
        }
    }
    Response::UploadOk {
        runs_total: ks.acc.runs,
        records: ks.acc.record_count() as u64,
    }
}

/// The seed reply frame for one key, built under the lock only when the
/// key holds none (no fetch since its last fold); the caller writes it
/// after the lock is gone. An encode error is not kept: the next fetch
/// tries again.
fn serve_seed(shared: &Shared, key: &StoreKey) -> Result<Arc<[u8]>, String> {
    let mut state = shared.lock();
    let State { keys, stats } = &mut *state;
    stats.seed_requests += 1;
    let Some(ks) = keys.get_mut(key) else {
        drop(state);
        return encode_frame(&Response::Seed { snapshot: None }).map(Arc::from);
    };
    let served = match &mut ks.served {
        Some(served) => served,
        none => none.insert(ServedSeed::build(&shared.cfg, &ks.acc, ks.image.as_ref())?),
    };
    served.count(stats);
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
