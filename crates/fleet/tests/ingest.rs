//! Fleet server integration tests over real loopback TCP: ingest
//! determinism under any interleaving and upload order (the PR 3
//! `parallel==sequential` guarantee lifted to the network), hostile-frame
//! robustness, warm restart, aging, and seed verification.

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use cobra_fleet::{write_frame, FleetClient, FleetConfig, FleetServer, Request, Response};
use cobra_isa::CodeImage;
use cobra_store::{
    image_hash, merge_unordered, DecisionRecord, ProfileRecord, Snapshot, Store, StoreKey,
    WinnerRecord,
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

/// Upload `uploads` to a fresh server over `clients` concurrent
/// connections (round-robin assignment, every connection open before the
/// first upload goes out), then return the persisted bytes per file name.
fn ingest(uploads: &[Snapshot], clients: usize, tag: &str) -> BTreeMap<String, Vec<u8>> {
    let dir = tmp_dir(tag);
    let server = FleetServer::start(
        "127.0.0.1:0",
        FleetConfig {
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

    /// Any interleaving (client split), any upload order: byte-identical
    /// persisted state. The reference is the same multiset folded
    /// sequentially over one connection.
    #[test]
    fn ingest_determinism_any_interleaving_and_order(
        n_uploads in 4usize..10,
        n_keys in 1u64..4,
        clients in 2usize..6,
        rot in 0usize..8,
    ) {
        let mut uploads: Vec<Snapshot> = (0..n_uploads)
            .map(|i| upload_snapshot(key(i as u64 % n_keys), i as u32))
            .collect();
        let reference = ingest(&uploads, 1, "ref");
        prop_assert!(!reference.is_empty());
        // Rotate the multiset so the concurrent run also sees a different
        // submission order, then fan it over many clients.
        let n = uploads.len();
        uploads.rotate_left(rot % n);
        let got = ingest(&uploads, clients, "perm");
        prop_assert_eq!(got, reference);
        // Nothing but lock contention: the same uploads all to one key, a
        // connection each, let go together.
        for u in &mut uploads {
            u.key = key(0);
        }
        let got = ingest(&uploads, n, "lock");
        prop_assert_eq!(got, ingest(&uploads, 1, "serial"));
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
/// reject: the server keeps serving, and the key it aimed at keeps the
/// state it had.
#[test]
fn overflowing_uploads_are_rejected_not_fatal() {
    let server = FleetServer::start(
        "127.0.0.1:0",
        FleetConfig {
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
    assert_eq!(runs_total, 1, "the server still folds");
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

/// The server restarts warm from its persisted keys: counters resume
/// and folds continue from the restored state.
#[test]
fn restart_is_warm() {
    let dir = tmp_dir("warm");
    let cfg = FleetConfig {
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

/// A copy of a key's file under another name is not a second key: a
/// restarted server loads each key from `<stem>.jsonl` alone.
#[test]
fn restart_loads_each_key_from_its_own_file() {
    let dir = tmp_dir("stray");
    let cfg = FleetConfig {
        dir: Some(dir.clone()),
        max_age_runs: None,
    };
    let uploads = [upload_snapshot(key(1), 0), upload_snapshot(key(1), 1)];
    let server = FleetServer::start("127.0.0.1:0", cfg.clone()).unwrap();
    let mut c = FleetClient::connect(&server.local_addr().to_string()).unwrap();
    c.upload(&uploads[0], None).unwrap();
    // The stray holds the first run only and sorts after the key's file.
    let own = Store::new(&dir).path_for(&key(1));
    std::fs::copy(&own, dir.join("zz-stray.jsonl")).unwrap();
    c.upload(&uploads[1], None).unwrap();
    drop(c);
    server.shutdown();

    let server = FleetServer::start("127.0.0.1:0", cfg).unwrap();
    let stats = server.stats();
    assert_eq!((stats.keys, stats.runs_total), (1, uploads.len() as u64));
    let mut c = FleetClient::connect(&server.local_addr().to_string()).unwrap();
    let seed = c.fetch_seed(&key(1)).unwrap().expect("seed exists");
    assert_eq!(seed, merge_unordered(&uploads).unwrap());
    server.shutdown();
}

/// A real image with one genuine loop head, so check_seed has something to
/// accept and something to reject: the image, its main words and the head.
fn loop_image() -> (CodeImage, Vec<u64>, u32) {
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
    (img, words, head)
}

/// A one-run upload deciding `heads`, with a winner at the first.
fn deciding(k: StoreKey, heads: &[u32]) -> Snapshot {
    let mut s = Snapshot::empty(k);
    s.runs = 1;
    for &h in heads {
        s.decisions.push(DecisionRecord {
            loop_head: h,
            kind: "noprefetch".into(),
            reverted: false,
            baseline_cpi: 1.4,
            post_cpi: Some(1.1),
        });
    }
    s.winners.push(WinnerRecord {
        loop_head: heads[0],
        candidate: "combined.split".into(),
        kind: "combined".into(),
        trials: vec![("noprefetch".into(), 1.25)],
    });
    s
}

/// One `FetchSeed` over a raw connection: the reply frame as it arrived,
/// length prefix included.
fn fetch_frame(s: &mut TcpStream, k: StoreKey) -> Vec<u8> {
    write_frame(s, &Request::FetchSeed { key: k }).unwrap();
    let mut frame = vec![0u8; 4];
    s.read_exact(&mut frame).unwrap();
    let len = u32::from_be_bytes(frame[..4].try_into().unwrap());
    frame.resize(4 + len as usize, 0);
    s.read_exact(&mut frame[4..]).unwrap();
    frame
}

/// The reply a server that built every seed afresh would write for these
/// uploads: fold, age, verify, encode.
fn fresh_seed_frame(uploads: &[Snapshot], max_age_runs: u64, img: &CodeImage) -> Vec<u8> {
    let (mut seed, _, _) = merge_unordered(uploads).unwrap().age_filtered(max_age_runs);
    seed.decisions
        .retain(|d| cobra_verify::check_seed(img, d.loop_head).is_ok());
    seed.winners
        .retain(|w| cobra_verify::check_seed(img, w.loop_head).is_ok());
    let mut frame = Vec::new();
    write_frame(
        &mut frame,
        &Response::Seed {
            snapshot: Some(seed),
        },
    )
    .unwrap();
    frame
}

/// Fetches between folds are served from the key's held frame; every one
/// of them is byte for byte the frame a fresh build writes, so a fold and
/// a new image always reach the next reply.
#[test]
fn a_served_seed_is_the_frame_a_fresh_build_writes() {
    let (img, words, head) = loop_image();
    let k = StoreKey {
        image_hash: image_hash(&img),
        machine_fp: 0x77,
    };
    let max_age = 2;
    let server = FleetServer::start(
        "127.0.0.1:0",
        FleetConfig {
            dir: None,
            max_age_runs: Some(max_age),
        },
    )
    .unwrap();
    let addr = server.local_addr();
    let mut uploader = FleetClient::connect(&addr.to_string()).unwrap();
    let mut fetcher = TcpStream::connect(addr).unwrap();

    // The first upload brings the image and a head that is no loop (0);
    // the next two leave 0 unconfirmed until it ages, and the last brings
    // a second bogus head. `None` is a fetch.
    let mut uploads = vec![deciding(k, &[head, 0])];
    uploader.upload(&uploads[0], Some(&words)).unwrap();
    let (again, bogus) = ([head], [head, head + 1]);
    let (fetch, again, bogus) = (None, Some(&again[..]), Some(&bogus[..]));
    let mut replies = Vec::new();
    for step in [fetch, fetch, again, fetch, fetch, bogus, fetch] {
        match step {
            None => {
                let frame = fetch_frame(&mut fetcher, k);
                let want = fresh_seed_frame(&uploads, max_age, &img);
                assert_eq!(frame, want, "reply {}", replies.len());
                replies.push(frame);
            }
            Some(heads) => {
                uploads.push(deciding(k, heads));
                uploader.upload(uploads.last().unwrap(), None).unwrap();
            }
        }
    }
    // Two replies per fold state, and each fold changed the reply.
    assert_eq!(replies[0], replies[1]);
    assert_eq!(replies[2], replies[3]);
    assert_ne!(replies[1], replies[2]);
    assert_ne!(replies[3], replies[4]);
    let stats = uploader.stats().unwrap();
    assert_eq!((stats.seed_hits, stats.served_unverified), (5, 0));
    server.shutdown();
}

/// The counters count serves, not builds: N fetches with no fold between
/// them add N times what one serve adds, on a key whose seed is verified
/// and on one whose seed is not.
#[test]
fn repeat_fetches_count_every_serve() {
    let (img, words, head) = loop_image();
    let verified = StoreKey {
        image_hash: image_hash(&img),
        machine_fp: 0x77,
    };
    let server = FleetServer::start(
        "127.0.0.1:0",
        FleetConfig {
            dir: None,
            max_age_runs: Some(2),
        },
    )
    .unwrap();
    let mut c = FleetClient::connect(&server.local_addr().to_string()).unwrap();
    // Verified: 0 ages out and head + 1, confirmed every run, fails
    // `check_seed`.
    c.upload(&deciding(verified, &[head, 0, head + 1]), Some(&words))
        .unwrap();
    for _ in 0..2 {
        c.upload(&deciding(verified, &[head, head + 1]), None)
            .unwrap();
    }
    // Unverified: heads 11 and 12 age out.
    for variant in [2, 0, 3] {
        c.upload(&upload_snapshot(key(5), variant), None).unwrap();
    }

    let counts = |c: &mut FleetClient| {
        let s = c.stats().unwrap();
        [
            s.seed_requests,
            s.seed_hits,
            s.aged_decisions,
            s.aged_winners,
            s.verify_dropped,
            s.served_unverified,
        ]
    };
    let delta = |a: [u64; 6], b: [u64; 6]| std::array::from_fn::<u64, 6, _>(|i| b[i] - a[i]);
    for (k, one_serve) in [(verified, [1, 1, 1, 0, 1, 0]), (key(5), [1, 1, 2, 0, 0, 1])] {
        let before = counts(&mut c);
        c.fetch_seed(&k).unwrap().expect("seed exists");
        let built = counts(&mut c);
        assert_eq!(
            delta(before, built),
            one_serve,
            "{k}: the serve that builds"
        );
        let n = 5;
        for _ in 0..n {
            c.fetch_seed(&k).unwrap().expect("seed exists");
        }
        let after = counts(&mut c);
        assert_eq!(
            delta(built, after),
            one_serve.map(|x| n * x),
            "{k}: {n} serves of the held frame"
        );
    }
    server.shutdown();
}

/// Serving applies the aging policy (stale heads withheld, counted) and
/// `check_seed` verification (bogus heads dropped) when the image is
/// known; the fold state itself keeps everything.
#[test]
fn served_seeds_are_aged_and_verified() {
    let (img, words, head) = loop_image();
    let k = StoreKey {
        image_hash: image_hash(&img),
        machine_fp: 0x77,
    };

    let server = FleetServer::start(
        "127.0.0.1:0",
        FleetConfig {
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
