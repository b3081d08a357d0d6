//! Fleet server integration tests over real loopback TCP: ingest
//! determinism under any interleaving/sharding (the PR 3
//! `parallel==sequential` guarantee lifted to the network), hostile-frame
//! robustness, warm restart, aging, and seed verification.

use std::collections::BTreeMap;
use std::io::Write;
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use cobra_fleet::{FleetClient, FleetConfig, FleetServer};
use cobra_store::{
    image_hash, DecisionRecord, ProfileRecord, Snapshot, Store, StoreKey, WinnerRecord,
};
use proptest::prelude::*;

fn tmp_dir(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let d = std::env::temp_dir().join(format!(
        "cobra-fleet-{tag}-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    // Nothing removes these, and process ids come round again: a directory
    // an earlier run left under the same name would warm-start the server.
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

fn key(n: u64) -> StoreKey {
    StoreKey {
        image_hash: 0x1000 + n,
        machine_fp: 0x2000 + n,
    }
}

/// A one-run upload with decisions/winners derived from `variant` so
/// different uploads disagree on content at shared heads.
fn upload_snapshot(k: StoreKey, variant: u32) -> Snapshot {
    let mut s = Snapshot::empty(k);
    s.runs = 1;
    s.profile = ProfileRecord {
        instructions: 1000 + variant as u64,
        cycles: 2000,
        samples: 10 + variant as u64,
        ..ProfileRecord::default()
    };
    let kinds = ["noprefetch", "prefetch.excl", "combined"];
    for head in 0..=(variant % 3) {
        s.decisions.push(DecisionRecord {
            loop_head: 10 + head,
            kind: kinds[((variant + head) % 3) as usize].into(),
            reverted: false,
            baseline_cpi: 1.5,
            post_cpi: if variant.is_multiple_of(2) {
                Some(1.2)
            } else {
                None
            },
        });
    }
    if variant.is_multiple_of(4) {
        s.winners.push(WinnerRecord {
            loop_head: 10,
            candidate: format!("combined.v{}", variant % 2),
            kind: "combined".into(),
            trials: vec![("noprefetch".into(), 1.3)],
        });
    }
    if variant.is_multiple_of(5) {
        s.blacklist.push(90 + variant);
    }
    s
}

/// Upload `uploads` to a fresh server with `shards` shards and `clients`
/// concurrent connections (round-robin assignment, every connection open
/// before the first upload goes out), then return the persisted bytes per
/// file name.
fn ingest(
    uploads: &[Snapshot],
    shards: usize,
    clients: usize,
    tag: &str,
) -> BTreeMap<String, Vec<u8>> {
    let dir = tmp_dir(tag);
    let server = FleetServer::start(
        "127.0.0.1:0",
        FleetConfig {
            shards,
            dir: Some(dir.clone()),
            max_age_runs: None,
        },
    )
    .expect("server starts");
    let addr = server.local_addr().to_string();
    let mut per_client: Vec<Vec<Snapshot>> = vec![Vec::new(); clients.max(1)];
    for (i, u) in uploads.iter().enumerate() {
        per_client[i % clients.max(1)].push(u.clone());
    }
    let connected = std::sync::Barrier::new(per_client.len());
    std::thread::scope(|scope| {
        for mine in per_client {
            let (addr, connected) = (addr.clone(), &connected);
            scope.spawn(move || {
                let mut c = FleetClient::connect(&addr).expect("connect");
                connected.wait();
                for u in mine {
                    c.upload(&u, None).expect("upload folds");
                }
            });
        }
    });
    let stats = server.stats();
    assert_eq!(stats.uploads, uploads.len() as u64);
    server.shutdown();
    let store = Store::new(&dir);
    store
        .snapshot_paths()
        .into_iter()
        .map(|p| {
            let name = p.file_name().unwrap().to_string_lossy().into_owned();
            (name, std::fs::read(&p).unwrap())
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Any interleaving (client split), any shard count, any upload order:
    /// byte-identical persisted state. The reference is the same multiset
    /// folded sequentially on a single shard.
    #[test]
    fn ingest_determinism_any_interleaving_and_sharding(
        n_uploads in 4usize..10,
        n_keys in 1u64..4,
        shards in 2usize..6,
        clients in 2usize..6,
        rot in 0usize..8,
    ) {
        let mut uploads: Vec<Snapshot> = (0..n_uploads)
            .map(|i| upload_snapshot(key(i as u64 % n_keys), i as u32))
            .collect();
        let reference = ingest(&uploads, 1, 1, "ref");
        prop_assert!(!reference.is_empty());
        // Rotate the multiset so the concurrent run also sees a different
        // submission order, then fan it over many clients and shards.
        let n = uploads.len();
        uploads.rotate_left(rot % n);
        let got = ingest(&uploads, shards, clients, "perm");
        prop_assert_eq!(got, reference);
        // Nothing but lock contention: the same uploads all to one key of
        // one shard, a connection each, let go together.
        for u in &mut uploads {
            u.key = key(0);
        }
        let got = ingest(&uploads, 1, n, "lock");
        prop_assert_eq!(got, ingest(&uploads, 1, 1, "serial"));
    }
}

/// Malformed frames and torn connections are counted and dropped; the
/// server keeps serving well-formed clients afterwards.
#[test]
fn malformed_frames_are_counted_not_fatal() {
    let server = FleetServer::start("127.0.0.1:0", FleetConfig::default()).unwrap();
    let addr = server.local_addr();

    // 1: pure garbage (a length prefix promising 1.6GB).
    let mut s = TcpStream::connect(addr).unwrap();
    s.write_all(&[0x60u8; 8]).unwrap();
    drop(s);
    // 2: valid length, body is not JSON.
    let mut s = TcpStream::connect(addr).unwrap();
    s.write_all(&5u32.to_be_bytes()).unwrap();
    s.write_all(b"@@@@@").unwrap();
    drop(s);
    // 3: torn connection mid-frame (length promises more than is sent).
    let mut s = TcpStream::connect(addr).unwrap();
    s.write_all(&1000u32.to_be_bytes()).unwrap();
    s.write_all(b"partial").unwrap();
    drop(s);
    // 4: torn mid-length-prefix.
    let mut s = TcpStream::connect(addr).unwrap();
    s.write_all(&[0u8, 1u8]).unwrap();
    drop(s);
    // 5: a whole prefix and nothing after it.
    let mut s = TcpStream::connect(addr).unwrap();
    s.write_all(&40u32.to_be_bytes()).unwrap();
    drop(s);
    // 6: prefix and half a body in one write, as a well-formed frame's
    // prefix and body now arrive.
    let mut s = TcpStream::connect(addr).unwrap();
    let mut torn = 40u32.to_be_bytes().to_vec();
    torn.extend_from_slice(b"{\"FetchSeed\":{\"key\":");
    s.write_all(&torn).unwrap();
    drop(s);
    // 7-9: 100 KB frames, far under `MAX_FRAME_BYTES`, nested 100 000 deep:
    // as arrays, as objects, and inside an unknown field of an otherwise
    // valid request (the path that skips instead of building). A parser
    // that recurses once per level overflows the connection thread's stack
    // here, which aborts the process, not just the connection.
    let deep = 100_000;
    let in_unknown_field = format!(
        "{{\"FetchSeed\":{{\"key\":{{\"image_hash\":1,\"machine_fp\":2}},\"later\":{}",
        "[".repeat(deep)
    );
    for body in ["[".repeat(deep), "{\"a\":".repeat(deep), in_unknown_field] {
        let mut s = TcpStream::connect(addr).unwrap();
        let mut frame = (body.len() as u32).to_be_bytes().to_vec();
        frame.extend_from_slice(body.as_bytes());
        s.write_all(&frame).unwrap();
        drop(s);
    }

    // A well-formed client still gets service.
    let mut c = FleetClient::connect(&addr.to_string()).unwrap();
    c.upload(&upload_snapshot(key(1), 0), None).unwrap();
    let stats = loop {
        // The hostile connections race with the good one; poll until the
        // server has reaped all nine.
        let st = c.stats().unwrap();
        if st.frames_rejected >= 9 {
            break st;
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
    };
    assert_eq!(stats.frames_rejected, 9);
    assert_eq!(stats.uploads, 1);
    server.shutdown();
}

/// An upload whose counters would overflow the accumulator is a counted
/// reject: the shard it hashed to keeps serving, and the key it aimed at
/// keeps the state it had.
#[test]
fn overflowing_uploads_are_rejected_not_fatal() {
    let server = FleetServer::start(
        "127.0.0.1:0",
        FleetConfig {
            shards: 1,
            ..FleetConfig::default()
        },
    )
    .unwrap();
    let mut c = FleetClient::connect(&server.local_addr().to_string()).unwrap();
    c.upload(&upload_snapshot(key(1), 0), None).unwrap();
    let before = c.fetch_seed(&key(1)).unwrap();

    let mut too_many_runs = upload_snapshot(key(1), 1);
    too_many_runs.runs = u64::MAX;
    let mut too_many_samples = upload_snapshot(key(1), 2);
    too_many_samples.profile.samples = u64::MAX;
    for hostile in [too_many_runs, too_many_samples] {
        let err = c.upload(&hostile, None).unwrap_err();
        assert!(err.contains("would overflow"), "got: {err}");
    }

    let (runs_total, _) = c.upload(&upload_snapshot(key(2), 3), None).unwrap();
    assert_eq!(runs_total, 1, "the one shard still folds");
    assert_eq!(c.fetch_seed(&key(1)).unwrap(), before);
    let stats = c.stats().unwrap();
    assert_eq!(stats.upload_rejects, 2);
    assert_eq!(stats.uploads, 2);
    assert_eq!(stats.runs_total, 2);
    server.shutdown();
}

/// One connection, a thousand calls of alternating kinds: every reply is
/// the reply to the call just made, whole. The client's buffered reader
/// may never hold bytes the protocol has not asked for.
#[test]
fn long_lockstep_conversation_keeps_every_reply_intact() {
    let server = FleetServer::start("127.0.0.1:0", FleetConfig::default()).unwrap();
    let mut c = FleetClient::connect(&server.local_addr().to_string()).unwrap();
    let mut uploads = 0u64;
    for i in 0..1000u32 {
        match i % 3 {
            0 => {
                uploads += 1;
                let (runs_total, _) = c.upload(&upload_snapshot(key(7), i), None).unwrap();
                assert_eq!(runs_total, uploads);
            }
            1 => {
                let seed = c.fetch_seed(&key(7)).unwrap().expect("seed exists");
                assert_eq!((seed.key, seed.runs), (key(7), uploads));
            }
            _ => assert_eq!(c.stats().unwrap().uploads, uploads),
        }
    }
    server.shutdown();
}

/// Key-mismatched image words are rejected and counted, and the upload is
/// not folded.
#[test]
fn mismatched_image_words_are_rejected() {
    let server = FleetServer::start("127.0.0.1:0", FleetConfig::default()).unwrap();
    let mut c = FleetClient::connect(&server.local_addr().to_string()).unwrap();
    let err = c
        .upload(&upload_snapshot(key(1), 0), Some(&[1, 2, 3]))
        .unwrap_err();
    assert!(err.contains("hash"), "got: {err}");
    let stats = c.stats().unwrap();
    assert_eq!(stats.upload_rejects, 1);
    assert_eq!(stats.uploads, 0);
    server.shutdown();
}

/// The server restarts warm from its persisted shards: counters resume
/// and folds continue from the restored state.
#[test]
fn restart_is_warm() {
    let dir = tmp_dir("warm");
    let cfg = FleetConfig {
        shards: 3,
        dir: Some(dir.clone()),
        max_age_runs: None,
    };
    let server = FleetServer::start("127.0.0.1:0", cfg.clone()).unwrap();
    let mut c = FleetClient::connect(&server.local_addr().to_string()).unwrap();
    c.upload(&upload_snapshot(key(1), 0), None).unwrap();
    c.upload(&upload_snapshot(key(1), 1), None).unwrap();
    c.upload(&upload_snapshot(key(2), 2), None).unwrap();
    drop(c);
    server.shutdown();

    let server = FleetServer::start("127.0.0.1:0", cfg).unwrap();
    let stats = server.stats();
    assert_eq!(stats.keys, 2);
    assert_eq!(stats.runs_total, 3);
    let mut c = FleetClient::connect(&server.local_addr().to_string()).unwrap();
    let (runs_total, _) = c.upload(&upload_snapshot(key(1), 3), None).unwrap();
    assert_eq!(runs_total, 3, "fold continues from restored state");
    let seed = c.fetch_seed(&key(1)).unwrap().expect("seed exists");
    assert_eq!(seed.runs, 3);
    server.shutdown();
}

/// Serving applies the aging policy (stale heads withheld, counted) and
/// `check_seed` verification (bogus heads dropped) when the image is
/// known; the fold state itself keeps everything.
#[test]
fn served_seeds_are_aged_and_verified() {
    // A real image with one genuine loop head, so check_seed has
    // something to accept and something to reject.
    let mut a = cobra_isa::Assembler::new();
    a.movi(4, 7);
    let top = a.new_label();
    a.bind(top);
    let head = a.here();
    a.ldfd(16, 32, 2, 8);
    a.br_ctop(top);
    a.hlt();
    let img = a.finish();
    let words = img.words()[..img.main_len() as usize].to_vec();
    let k = StoreKey {
        image_hash: image_hash(&img),
        machine_fp: 0x77,
    };

    let server = FleetServer::start(
        "127.0.0.1:0",
        FleetConfig {
            shards: 2,
            dir: None,
            max_age_runs: Some(3),
        },
    )
    .unwrap();
    let mut c = FleetClient::connect(&server.local_addr().to_string()).unwrap();

    // Run 1 confirms the real head and a bogus head (movi at 0 is no loop).
    let mut first = Snapshot::empty(k);
    first.runs = 1;
    for h in [head, 0] {
        first.decisions.push(DecisionRecord {
            loop_head: h,
            kind: "noprefetch".into(),
            reverted: false,
            baseline_cpi: 1.4,
            post_cpi: Some(1.1),
        });
    }
    c.upload(&first, Some(&words)).unwrap();
    // Three more runs only re-confirm the real head → the bogus head also
    // accrues aging debt, but verification alone must already drop it.
    for _ in 0..3 {
        let mut s = Snapshot::empty(k);
        s.runs = 1;
        s.decisions.push(DecisionRecord {
            loop_head: head,
            kind: "noprefetch".into(),
            reverted: false,
            baseline_cpi: 1.4,
            post_cpi: Some(1.1),
        });
        c.upload(&s, None).unwrap();
    }

    let seed = c.fetch_seed(&k).unwrap().expect("seed served");
    let heads: Vec<u32> = seed.decisions.iter().map(|d| d.loop_head).collect();
    assert_eq!(heads, vec![head], "bogus head aged/verified away");
    let stats = c.stats().unwrap();
    assert_eq!(stats.served_unverified, 0, "image was known");
    assert!(
        stats.aged_decisions + stats.verify_dropped >= 1,
        "the bogus head was dropped by policy or verification"
    );
    server.shutdown();
}
