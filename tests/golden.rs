//! Byte-identity oracle for everything this system persists or sends.
//!
//! The files under `tests/golden/` were written by the build of commit
//! `aad855d` (the last one whose `compat/serde*` built a `Value` tree per
//! document) from the values constructed in this file. Every later codec
//! must re-encode those values to the same bytes and decode the files to
//! the same values, or stores written by older builds stop checksumming
//! and older fleet peers stop understanding newer ones.
//!
//! `regenerate` (ignored) rewrites the corpus from the codec of the
//! checkout it runs in; that is only an oracle when run on a commit whose
//! codec is trusted independently of this test.
//!
//! (The four `fig5_*.txt` files beside the corpus are not this test's: they
//! are `cobra-repro fig5` output of commit `4ef88f4`, diffed by the
//! `decisions-pinned` CI job; `tests/decision_pin.rs` is their tier-1 kin.)

use std::path::PathBuf;

use cobra::machine::{HostAccel, MachineConfig};
use cobra::rt::telemetry::{read_jsonl, CpuCounterSnapshot, TelemetryEvent, TelemetryRecord};
use cobra::rt::{AppliedPlan, CobraReport, OptKind, RevertedPlan, RunTotals, Strategy};
use cobra_fleet::proto::{read_frame, write_frame, Request, Response, PROTOCOL_VERSION};
use cobra_fleet::FleetStats;
use cobra_store::{
    fnv1a, machine_fingerprint, read_snapshot_file, write_snapshot_file, AgeRecord,
    BranchPairRecord, DecisionRecord, DelinquentRecord, ProfileRecord, Record, Snapshot, StoreKey,
    WinnerRecord,
};
use serde_json::Value;

/// `machine_fingerprint` of the two presets, as the parent computed them.
const SMP4_FINGERPRINT: u64 = 17_576_695_745_344_650_595;
const ALTIX8_FINGERPRINT: u64 = 10_779_506_645_683_096_597;

fn dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

fn golden(name: &str) -> String {
    let path = dir().join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

// ------------------------------------------------------------------ corpus

fn key() -> StoreKey {
    StoreKey {
        image_hash: 0xfedc_ba98_7654_3210,
        machine_fp: u64::MAX,
    }
}

/// A snapshot that writes all six `Record` variants, with floats that
/// exercise the formatting cases (`2.0`, shortest round trip, `1e300` in
/// full) and a string that needs every kind of escape. Non-finite floats
/// are in the telemetry file: a snapshot holding one would not compare
/// equal to itself after a reload.
fn snapshot() -> Snapshot {
    Snapshot {
        key: key(),
        runs: 7,
        profile: ProfileRecord {
            instructions: 123_456_789_012,
            cycles: u64::MAX - 1,
            bus_memory: 4_000,
            bus_coherent: 17,
            l2_miss: 900,
            l3_miss: 0,
            samples: 321,
            delinquent: vec![
                DelinquentRecord {
                    pc: 0x40,
                    coherent: 3,
                    memory: 99,
                    total_latency: 12_345,
                },
                DelinquentRecord {
                    pc: 0x1_0040,
                    coherent: 0,
                    memory: 1,
                    total_latency: 180,
                },
            ],
            branch_pairs: vec![BranchPairRecord {
                src: 0x90,
                target: 0x40,
                count: 55_000,
            }],
        },
        decisions: vec![
            DecisionRecord {
                loop_head: 0x40,
                kind: "noprefetch".into(),
                reverted: false,
                baseline_cpi: 2.0,
                post_cpi: Some(1.7300000000000002),
            },
            DecisionRecord {
                loop_head: 0x80,
                kind: "prefetch.excl".into(),
                reverted: true,
                baseline_cpi: 0.1,
                post_cpi: None,
            },
        ],
        blacklist: vec![0x80, 0xc0],
        winners: vec![WinnerRecord {
            loop_head: 0x40,
            candidate: "combined.split \"a\\b\"\n\t\u{1}é😀".into(),
            kind: "combined".into(),
            trials: vec![
                ("noprefetch".into(), 1.25),
                ("excl".into(), 1e-7),
                ("huge".into(), 1e300),
            ],
        }],
        ages: vec![
            AgeRecord {
                loop_head: 0x40,
                seen_runs: 7,
            },
            AgeRecord {
                loop_head: 0x80,
                seen_runs: 2,
            },
        ],
    }
}

/// A store line as `cobra-store` frames it.
fn envelope(body: &str, crc: u64) -> String {
    format!("{{\"crc\":{crc},\"body\":{body}}}")
}

/// Two lines older writers produced: a decision from before `post_cpi`
/// existed (the checksum covers the canonical form, which names the field),
/// and one carrying the `0.0` "no trial window" sentinel.
fn legacy_lines() -> Vec<String> {
    let absent = DecisionRecord {
        loop_head: 0x100,
        kind: "noprefetch".into(),
        reverted: false,
        baseline_cpi: 1.1,
        post_cpi: None,
    };
    let canon = serde_json::to_string(&Record::Decision(absent)).unwrap();
    let written = canon.replace(",\"post_cpi\":null", "");
    assert_ne!(written, canon);
    let sentinel = r#"{"Decision":{"loop_head":320,"kind":"prefetch.excl","reverted":false,"baseline_cpi":1.4,"post_cpi":0.0}}"#;
    vec![
        envelope(&written, fnv1a(canon.as_bytes())),
        envelope(sentinel, fnv1a(sentinel.as_bytes())),
    ]
}

/// What loading `store.jsonl` (the snapshot plus the legacy lines) yields.
fn loaded_snapshot() -> Snapshot {
    let mut s = snapshot();
    for (loop_head, kind, baseline_cpi) in [(0x100, "noprefetch", 1.1), (320, "prefetch.excl", 1.4)]
    {
        s.decisions.push(DecisionRecord {
            loop_head,
            kind: kind.into(),
            reverted: false,
            baseline_cpi,
            post_cpi: None,
        });
    }
    s
}

/// A `Seed` reply from a server older than tournaments and age tracking.
const LEGACY_SEED_FRAME: &str = r#"{"Seed":{"snapshot":{"key":{"image_hash":1,"machine_fp":2},"runs":3,"profile":{"instructions":10,"cycles":20,"bus_memory":0,"bus_coherent":0,"l2_miss":0,"l3_miss":0,"samples":1,"delinquent":[],"branch_pairs":[]},"decisions":[],"blacklist":[64]}}}"#;

fn legacy_seed() -> Response {
    let mut snapshot = Snapshot::empty(StoreKey {
        image_hash: 1,
        machine_fp: 2,
    });
    snapshot.runs = 3;
    snapshot.profile.instructions = 10;
    snapshot.profile.cycles = 20;
    snapshot.profile.samples = 1;
    snapshot.blacklist = vec![64];
    Response::Seed {
        snapshot: Some(snapshot),
    }
}

fn events() -> Vec<TelemetryEvent> {
    use TelemetryEvent::*;
    let (tick, cycle, plan_id, loop_head) = (3, 30_000, 9, 0x40);
    vec![
        Attach {
            cycle,
            machine: "altix8".into(),
            cpus: 8,
            strategy: Strategy::ExclHint,
            candidates: true,
            osr: false,
            main_len: 0x600,
        },
        Quantum {
            tick,
            cycle,
            samples_forwarded: 4,
            cpus: vec![CpuCounterSnapshot {
                cpu: 1,
                inst_retired: u64::MAX,
                l2_miss: 5,
                l3_miss: 4,
                bus_memory: 3,
                coherent: 2,
            }],
        },
        KernelDrain {
            tick,
            cycle,
            cpu: 2,
            samples: 64,
            dropped_total: 1,
        },
        UsbLevel {
            tick,
            cpu: 2,
            occupancy: 10,
            capacity: 4096,
            dropped_total: 0,
        },
        LoopClassified {
            tick,
            cycle,
            loop_head,
            back_edge: 0x90,
            prefetch_effective: false,
            decision: Some(OptKind::NoPrefetch),
        },
        LoopClassified {
            tick,
            cycle,
            loop_head,
            back_edge: 0x90,
            prefetch_effective: true,
            decision: None,
        },
        PhaseChange {
            tick,
            cycle,
            phases: 2,
        },
        Deploy {
            cycle,
            plan: AppliedPlan {
                plan_id,
                kind: OptKind::ExclHint,
                loop_head,
                description: "prefetch.excl: 6 lfetch -> lfetch.excl".into(),
                tick,
                words_patched: 6,
                trace_entry: Some(0x2_0000),
                candidate: Some("prefetch.excl.body".into()),
            },
        },
        Deploy {
            cycle,
            plan: AppliedPlan {
                plan_id: plan_id + 1,
                kind: OptKind::NoPrefetch,
                loop_head,
                description: String::new(),
                tick,
                words_patched: 1,
                trace_entry: None,
                candidate: None,
            },
        },
        CpiTrial {
            tick,
            cycle,
            plan_id,
            post_ticks: 4,
            baseline_cpi: 2.5,
            post_cpi: 3.0000000000000004,
            regressed: true,
        },
        Revert {
            cycle,
            plan: RevertedPlan {
                plan_id,
                reason: "cpi regressed: 2.5 -> 3".into(),
                tick,
            },
        },
        Blacklist {
            tick,
            cycle,
            loop_head,
        },
        RevertFailed {
            cycle,
            loop_head,
            addr: 0x44,
            words_restored: 1,
            detail: "text is read-only".into(),
            plan: RevertedPlan {
                plan_id,
                reason: "cpi regressed: 2.5 -> 3 [revert failed at 68 after 1/6 words: \
                         text is read-only]"
                    .into(),
                tick,
            },
        },
        DeployFailed {
            tick,
            cycle,
            plan_id,
            loop_head,
            detail: "trace cache full".into(),
        },
        CandidateTrial {
            tick,
            cycle,
            loop_head,
            candidate: "combined.split".into(),
            plan_id,
            trial_ticks: 2,
            baseline_cpi: 1.5,
            cpi: f64::NAN,
        },
        TournamentOutcome {
            tick,
            cycle,
            loop_head,
            candidates: 3,
            winner: Some("excl".into()),
            winner_cpi: Some(1.125),
            promoted: true,
        },
        TournamentOutcome {
            tick,
            cycle,
            loop_head,
            candidates: 0,
            winner: None,
            winner_cpi: None,
            promoted: false,
        },
        UndecodableLoop {
            tick,
            cycle,
            loop_head,
        },
        VerifyReject {
            tick,
            cycle,
            loop_head,
            reason: "plan writes outside the loop".into(),
        },
        WarmVerdict {
            tick,
            cycle,
            loop_head,
            hit: true,
        },
        WarmVerdict {
            tick,
            cycle,
            loop_head,
            hit: false,
        },
        WarmStart {
            tick,
            cycle,
            seeded_decisions: 2,
            seeded_blacklist: 1,
            skipped_records: 0,
        },
        StoreError {
            tick,
            cycle,
            detail: "cannot read /tmp/x: permission denied".into(),
        },
        StoreSave {
            tick,
            cycle,
            records: 9,
            path: "C:\\store\\a.jsonl".into(),
        },
        FleetSeed {
            tick,
            cycle,
            seeded_decisions: 2,
            seeded_winners: 1,
            seeded_blacklist: 1,
            runs: 40,
        },
        FleetUpload {
            tick,
            cycle,
            records: 9,
            runs_total: 41,
        },
        FleetError {
            tick,
            cycle,
            stage: "fetch".into(),
            detail: "connection refused".into(),
        },
        OsrMigrate {
            tick,
            cycle,
            plan_id,
            migrations: 4,
            ticks_since_deploy: 0,
        },
        OsrRevert {
            tick,
            cycle,
            plan_id,
            migrations: 1,
            ticks_since_revert: 1,
        },
        OsrRejected {
            tick,
            cycle,
            plan_id,
            loop_head,
            reason: "map is not a bijection".into(),
        },
        Detach {
            cycle,
            totals: RunTotals {
                ticks: tick,
                records_dropped: 0,
                forks: 5,
                monitors_spawned: 8,
                samples_forwarded: 6,
                samples_merged: 7,
                overhead_cycles: 48,
                guest_faults: 8,
                store_skipped_records: 9,
            },
        },
    ]
}

fn records() -> Vec<TelemetryRecord> {
    let number = |(seq, event)| TelemetryRecord {
        seq: seq as u64,
        event,
    };
    events().into_iter().enumerate().map(number).collect()
}

fn report() -> CobraReport {
    CobraReport {
        samples_forwarded: 1_000,
        samples_merged: 990,
        ticks: 40,
        forks: 3,
        monitors_spawned: 4,
        applied: vec![
            AppliedPlan {
                plan_id: 1,
                kind: OptKind::NoPrefetch,
                loop_head: 0x40,
                description: "drop 3 lfetch in loop @0x40".into(),
                tick: 5,
                words_patched: 3,
                trace_entry: None,
                candidate: None,
            },
            AppliedPlan {
                plan_id: 2,
                kind: OptKind::Combined,
                loop_head: 0x80,
                description: "per-site mix".into(),
                tick: 9,
                words_patched: 8,
                trace_entry: Some(0x2_0000),
                candidate: Some("combined.split".into()),
            },
        ],
        reverted: vec![RevertedPlan {
            plan_id: 2,
            reason: "cpi regressed".into(),
            tick: 14,
        }],
        overhead_cycles: 123_456,
        warm_started: true,
        candidates_trialed: 3,
        ..CobraReport::default()
    }
}

fn presets() -> [(&'static str, MachineConfig, u64); 2] {
    [
        ("machine_smp4.json", MachineConfig::smp4(), SMP4_FINGERPRINT),
        (
            "machine_altix8.json",
            MachineConfig::altix8(),
            ALTIX8_FINGERPRINT,
        ),
    ]
}

fn requests() -> Vec<Request> {
    vec![
        Request::Upload {
            snapshot: snapshot(),
            image_words: Some(vec![0, 1, u64::MAX]),
        },
        Request::Upload {
            snapshot: Snapshot::empty(key()),
            image_words: None,
        },
        Request::FetchSeed { key: key() },
        Request::Stats,
    ]
}

fn responses() -> Vec<Response> {
    vec![
        Response::UploadOk {
            runs_total: 41,
            records: 9,
        },
        Response::Seed {
            snapshot: Some(snapshot()),
        },
        Response::Seed { snapshot: None },
        Response::Stats(FleetStats {
            uploads: 10,
            upload_rejects: 1,
            seed_requests: 5,
            seed_hits: 4,
            frames_rejected: 2,
            keys: 3,
            runs_total: 70,
            shards: 4,
            ..FleetStats::default()
        }),
        Response::Err {
            detail: "key mismatch: \"a\" vs \"b\"".into(),
        },
    ]
}

/// Frames as hex, one per line, so the corpus stays a text file.
fn frames_hex<T: serde::Serialize>(msgs: &[T]) -> String {
    let mut out = String::new();
    for m in msgs {
        let mut buf = Vec::new();
        write_frame(&mut buf, m).unwrap();
        out.extend(buf.iter().map(|b| format!("{b:02x}")));
        out.push('\n');
    }
    out
}

fn unhex(line: &str) -> Vec<u8> {
    (0..line.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&line[i..i + 2], 16).unwrap())
        .collect()
}

fn jsonl<T: serde::Serialize>(items: &[T]) -> String {
    let line = |i| serde_json::to_string(i).unwrap() + "\n";
    items.iter().map(line).collect()
}

fn store_text() -> String {
    let path = std::env::temp_dir().join(format!("cobra-golden-{}.jsonl", std::process::id()));
    write_snapshot_file(&path, &snapshot()).unwrap();
    let mut text = std::fs::read_to_string(&path).unwrap();
    std::fs::remove_file(&path).unwrap();
    for l in legacy_lines() {
        text.push_str(&l);
        text.push('\n');
    }
    text
}

/// Every corpus file with the bytes this checkout's codec writes for it.
fn encoded() -> Vec<(&'static str, String)> {
    let mut files = vec![
        ("store.jsonl", store_text()),
        ("telemetry.jsonl", jsonl(&records())),
        (
            "report.json",
            serde_json::to_string_pretty(&report()).unwrap(),
        ),
        ("requests.hex", frames_hex(&requests())),
        ("responses.hex", frames_hex(&responses())),
    ];
    for (name, cfg, _) in presets() {
        files.push((name, serde_json::to_string_pretty(&cfg).unwrap()));
    }
    files
}

// ------------------------------------------------------------------- tests

#[test]
fn every_corpus_file_re_encodes_to_the_same_bytes() {
    for (name, bytes) in encoded() {
        assert!(bytes == golden(name), "{name} re-encodes differently");
    }
}

#[test]
fn store_file_loads_and_every_line_checksums() {
    let lr = read_snapshot_file(&dir().join("store.jsonl"), Some(&key()));
    assert_eq!(lr.error, None);
    assert_eq!(lr.skipped_records, 0);
    assert_eq!(lr.snapshot, Some(loaded_snapshot()));
    let text = golden("store.jsonl");
    assert_eq!(text.lines().count(), snapshot().record_count() + 2);
    for line in text.lines() {
        // The envelope as a document: the checksum covers the canonical
        // re-serialization of the typed body, not the bytes on the line.
        let env: Value = serde_json::from_str(line).unwrap();
        let body: Record = serde_json::from_value(env.get("body").unwrap()).unwrap();
        let canon = serde_json::to_string(&body).unwrap();
        let crc = env.get("crc").and_then(Value::as_u64).unwrap();
        assert_eq!(fnv1a(canon.as_bytes()), crc, "{line}");
    }
}

#[test]
fn telemetry_decodes_to_what_the_parent_decoded() {
    let got = read_jsonl(golden("telemetry.jsonl").as_bytes()).unwrap();
    let want = records();
    assert_eq!(got.len(), want.len());
    for (g, w) in got.iter().zip(&want) {
        // `CandidateTrial` carries a NaN (written as `null`), so compare
        // the rendering: NaN != NaN but prints alike.
        assert_eq!(format!("{g:?}"), format!("{w:?}"));
    }
}

#[test]
fn report_and_machine_configs_decode_and_fingerprint() {
    let r: CobraReport = serde_json::from_str(&golden("report.json")).unwrap();
    assert_eq!(format!("{r:?}"), format!("{:?}", report()));
    for (name, cfg, fingerprint) in presets() {
        let back: MachineConfig = serde_json::from_str(&golden(name)).unwrap();
        assert_eq!(format!("{back:?}"), format!("{cfg:?}"));
        assert_eq!(machine_fingerprint(&back), fingerprint, "{name}");
        let other = back.with_host_accel(HostAccel::Reference);
        assert_eq!(machine_fingerprint(&other), fingerprint, "{name}");
    }
}

#[test]
fn frames_decode_to_what_the_parent_decoded() {
    assert_eq!(PROTOCOL_VERSION, 1);
    let text = golden("requests.hex");
    let want = requests();
    assert_eq!(text.lines().count(), want.len());
    for (line, want) in text.lines().zip(&want) {
        let got: Request = read_frame(&mut unhex(line).as_slice()).unwrap().unwrap();
        assert_eq!(format!("{got:?}"), format!("{want:?}"));
    }
    let text = golden("responses.hex");
    let want = responses();
    assert_eq!(text.lines().count(), want.len());
    for (line, want) in text.lines().zip(&want) {
        let got: Response = read_frame(&mut unhex(line).as_slice()).unwrap().unwrap();
        assert_eq!(format!("{got:?}"), format!("{want:?}"));
    }
    let old: Response = serde_json::from_str(LEGACY_SEED_FRAME).unwrap();
    assert_eq!(old, legacy_seed());
}

/// Every truncation and every single-bit flip of every frame and telemetry
/// line goes through the typed decoders: refused or decoded, never a panic
/// (CI runs this with overflow checks on). Damaged store files are
/// `crates/store/tests/corruption.rs`'s subject.
#[test]
fn damaged_frames_and_lines_never_panic_a_decoder() {
    fn damaged(bytes: &[u8], decode: impl Fn(&[u8])) {
        for cut in 0..bytes.len() {
            decode(&bytes[..cut]);
        }
        for at in 0..bytes.len() {
            for bit in 0..8 {
                let mut flipped = bytes.to_vec();
                flipped[at] ^= 1 << bit;
                decode(&flipped);
            }
        }
    }
    for line in golden("requests.hex").lines() {
        damaged(&unhex(line), |mut b| drop(read_frame::<Request>(&mut b)));
    }
    for line in golden("responses.hex").lines() {
        damaged(&unhex(line), |mut b| drop(read_frame::<Response>(&mut b)));
    }
    for line in golden("telemetry.jsonl").lines() {
        damaged(line.as_bytes(), |b| drop(read_jsonl(b)));
    }
}

#[test]
#[ignore = "rewrites tests/golden from this checkout's codec"]
fn regenerate() {
    std::fs::create_dir_all(dir()).unwrap();
    for (name, bytes) in encoded() {
        std::fs::write(dir().join(name), bytes).unwrap();
    }
    for (name, cfg, _) in presets() {
        println!("{name}: fingerprint {}", machine_fingerprint(&cfg));
    }
}
