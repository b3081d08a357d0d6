//! A pinned decision sequence: one NPB kernel on `smp4`, attached four ways,
//! with one FNV-1a digest per arm over everything the optimizer's decisions
//! reach — the report, the final data memory, the saved store file and (for
//! the traced arm) the JSONL trace. Every arm runs on both host engines, and
//! both must digest to the one recorded constant: the report holds nothing
//! of the engine's own, so this is also the direct check that
//! `HostAccel::Fast` is `HostAccel::Reference` on real NPB code under COBRA
//! — tournaments, OSR, the store and the trace included.
//!
//! `cobra_runs_are_deterministic` checks that a run repeats itself; this
//! checks that it repeats the run the constants were recorded from, so a
//! refactor of the decision path that moves one plan id, one event or one
//! stored byte fails tier-1. Change a constant only with a change that is
//! meant to move guest behaviour, stored bytes or what the report and the
//! trace hold, and say so in that change.

use std::path::{Path, PathBuf};

use cobra::kernels::{npb, PrefetchPolicy};
use cobra::machine::{HostAccel, Machine, MachineConfig};
use cobra::omp::{OmpRuntime, Team};
use cobra::rt::{read_jsonl, write_jsonl, Cobra, Strategy, TelemetrySink};
use cobra_store::{Store, StoreKey};

mod common;

const KERNEL: npb::Benchmark = npb::Benchmark::Mg;

const FIXED_NOPREFETCH_20K: u64 = 0xf36b_3380_100f_7344;
const ADAPTIVE_20K: u64 = 0xe534_9ff6_a54d_78ba;
const CANDIDATES_COLD_500: u64 = 0xd9c8_652d_08e4_f450;
const CANDIDATES_WARM_500_TRACED: u64 = 0xc02f_e63d_aa5b_f384;

/// Every arm runs on each, in this order.
const ENGINES: [HostAccel; 2] = [HostAccel::Fast, HostAccel::Reference];

/// Streaming 64-bit FNV-1a: bytes for text, whole words for data memory.
struct Fnv(u64);

impl Fnv {
    fn word(&mut self, w: u64) {
        self.0 = (self.0 ^ w).wrapping_mul(0x0000_0100_0000_01b3);
    }

    fn bytes(&mut self, bytes: &[u8]) {
        bytes.iter().for_each(|&b| self.word(b as u64));
    }
}

struct Arm<'a> {
    strategy: Strategy,
    quantum: u64,
    candidates: bool,
    store: Option<&'a Path>,
    traced: bool,
}

/// Run the kernel under `arm` on `accel` and digest what it left behind.
fn digest(arm: &Arm<'_>, accel: HostAccel) -> u64 {
    let cfg = MachineConfig::smp4().with_host_accel(accel);
    let wl = npb::build(KERNEL, &PrefetchPolicy::aggressive(), cfg.mem_bytes);
    let mut m = Machine::new(cfg.clone(), wl.image().clone());
    wl.init(&mut m.shared.mem);
    let key = StoreKey::for_run(wl.image(), &cfg);

    let mut builder = Cobra::builder()
        .strategy(arm.strategy)
        .candidates(arm.candidates)
        .osr(true);
    if let Some(dir) = arm.store {
        builder = builder.store(dir);
    }
    let (sink, log) = TelemetrySink::memory();
    if arm.traced {
        builder = builder.telemetry(sink);
    }
    let mut cobra = builder.attach(&mut m);
    let rt = OmpRuntime {
        quantum: arm.quantum,
    };
    wl.run(&mut m, Team::new(4), &rt, &mut cobra);
    let report = cobra.detach(&mut m);
    wl.verify(&m.shared.mem)
        .expect("numerics survive every deployment");

    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    h.bytes(
        serde_json::to_string(&report)
            .expect("report serializes")
            .as_bytes(),
    );
    for addr in (0..(m.shared.mem.len() & !7) as u64).step_by(8) {
        h.word(m.shared.mem.read_u64(addr));
    }
    if let Some(dir) = arm.store {
        let file = Store::new(dir).path_for(&key);
        h.bytes(&std::fs::read(&file).expect("detach saved a snapshot"));
        let mut jsonl = Vec::new();
        write_jsonl(log.lock().unwrap().records(), &mut jsonl).expect("a Vec takes every line");
        if arm.traced {
            // The warm run settles seeds, so this replay covers `WarmVerdict`.
            assert!(report.warm_hits > 0, "the warm run resumes what it stored");
            let records = read_jsonl(jsonl.as_slice()).expect("whole lines");
            common::assert_log_replays_to(&records, &report);
        }
        // `StoreSave.path` is the one host-dependent field of a trace.
        let jsonl = String::from_utf8(jsonl).expect("JSONL is UTF-8");
        let dir = dir.to_str().expect("temp dir is UTF-8");
        h.bytes(jsonl.replace(dir, "<store>").as_bytes());
    }
    h.0
}

struct TempDir(PathBuf);

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// `(constant, recorded, computed on each of ENGINES)` per arm; a failure
/// prints what this run computed: a constant ready to paste where the two
/// engines agree, both values where they do not.
fn check(arms: &[(&str, u64, [u64; 2])]) {
    let shown: Vec<String> = arms
        .iter()
        .map(|&(name, _, [fast, reference])| {
            if fast == reference {
                format!("const {name}: u64 = {fast:#018x};")
            } else {
                format!("{name}: Fast {fast:#018x}, Reference {reference:#018x}")
            }
        })
        .collect();
    assert!(
        arms.iter().all(|&(_, want, got)| got == [want; 2]),
        "a decision moved; this run computed:\n{}",
        shown.join("\n")
    );
}

/// The paper's quantum: a fixed arm and the classic adaptive pick. (Two
/// tests, so the eight runs share the two test threads.)
#[test]
fn coarse_quantum_decisions_are_those_of_the_recorded_commit() {
    let run = |strategy| {
        let arm = Arm {
            strategy,
            quantum: 20_000,
            candidates: false,
            store: None,
            traced: false,
        };
        ENGINES.map(|accel| digest(&arm, accel))
    };
    check(&[
        (
            "FIXED_NOPREFETCH_20K",
            FIXED_NOPREFETCH_20K,
            run(Strategy::NoPrefetch),
        ),
        ("ADAPTIVE_20K", ADAPTIVE_20K, run(Strategy::Adaptive)),
    ]);
}

/// Tournaments and OSR at a 500-cycle quantum: cold into a fresh store,
/// then warm from it, the warm run traced. Each engine has its own store.
#[test]
fn tournament_decisions_are_those_of_the_recorded_commit() {
    let [fast, reference] = ENGINES.map(|accel| {
        let name = format!("cobra-pin-{}-{accel:?}", std::process::id());
        let tmp = TempDir(std::env::temp_dir().join(name));
        // Process ids come round again: a store an earlier run left under the
        // same name would turn the cold run warm.
        let _ = std::fs::remove_dir_all(&tmp.0);
        std::fs::create_dir_all(&tmp.0).expect("temp store dir");
        let run = |traced| {
            let arm = Arm {
                strategy: Strategy::Adaptive,
                quantum: 500,
                candidates: true,
                store: Some(&tmp.0),
                traced,
            };
            digest(&arm, accel)
        };
        let cold = run(false);
        (cold, run(true))
    });
    check(&[
        (
            "CANDIDATES_COLD_500",
            CANDIDATES_COLD_500,
            [fast.0, reference.0],
        ),
        (
            "CANDIDATES_WARM_500_TRACED",
            CANDIDATES_WARM_500_TRACED,
            [fast.1, reference.1],
        ),
    ]);
}
