//! Direct-drive probes: one layer at a time, called through its public
//! functions with inputs made here, so a layer's cost can be read without
//! the layers above it. Run once per traced run, after the passes.
//!
//! Each number is host time per call. The memory-system streams also fold
//! every outcome into a digest: a change meant only to make `access` faster
//! must leave each digest as it was.

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use cobra_fleet::proto::{read_frame, write_frame, Request};
use cobra_isa::{decode, encode, CodeImage, MicroOp};
use cobra_kernels::Workload;
use cobra_machine::{AccessKind, CpuStats, Hpm, Machine, MachineConfig, MemSystem, Topology};
use cobra_omp::{OmpRuntime, QuantumHook, Team};
use cobra_osr::OsrMap;
use cobra_perfmon::{PerfmonConfig, PerfmonDriver};
use cobra_rt::{
    select_loops, verify_plan, LatencyBands, Optimizer, OptimizerConfig, PatchPlan, PlanAction,
    SystemProfile, ThreadProfiler, TraceConfig,
};
use cobra_store::{merge_unordered, Snapshot, Store};
use cobra_verify::{check_osr_map, check_seed};

use crate::scenario::Layers;
use crate::sim::Fnv;
use crate::span::Tracer;
use crate::workloads::fleet_mixed::{key, seeded_snapshot};

/// SplitMix64: the seeded generator behind every input made here. Written
/// out so the streams depend on nothing but the seed.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> SplitMix {
        SplitMix(seed)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform-enough draw from `0..n` (`n` far below 2^64).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

fn ns_per(t: Instant, calls: u64) -> f64 {
    t.elapsed().as_nanos() as f64 / calls.max(1) as f64
}

// ------------------------------------------------------------------ memsys

/// Accesses per stream.
const ACCESSES: u64 = 1_000_000;
const LINE: u64 = 128;
const LOAD: AccessKind = AccessKind::Load {
    fp: true,
    bias: false,
};

/// A memory system with its per-CPU counters, driven without a machine.
struct Rig {
    ms: MemSystem,
    stats: Vec<CpuStats>,
    hpm: Vec<Hpm>,
    now: u64,
    digest: Fnv,
    accesses: u64,
}

impl Rig {
    fn new(cfg: &MachineConfig) -> Rig {
        Rig {
            ms: MemSystem::new(cfg),
            stats: (0..cfg.num_cpus).map(|_| CpuStats::new()).collect(),
            hpm: (0..cfg.num_cpus)
                .map(|_| Hpm::new(cfg.dear_min_latency))
                .collect(),
            now: 0,
            digest: Fnv::default(),
            accesses: 0,
        }
    }

    /// One access `gap` cycles after the previous one.
    fn access(&mut self, cpu: usize, kind: AccessKind, addr: u64, gap: u64) {
        self.now += gap;
        let out = self
            .ms
            .access(&mut self.stats, &mut self.hpm, cpu, self.now, 1, kind, addr);
        self.digest.word(out.complete_at);
        self.digest.word(out.stall_until);
        self.accesses += 1;
    }
}

/// Prime a rig untimed, then time `body` and report ns per timed access.
fn stream(
    cfg: &MachineConfig,
    name: &'static str,
    prime: impl FnOnce(&mut Rig),
    body: impl FnOnce(&mut Rig),
    tr: &mut Tracer,
) -> (&'static str, f64) {
    let mut rig = Rig::new(cfg);
    prime(&mut rig);
    rig.accesses = 0;
    let t = Instant::now();
    body(&mut rig);
    let ns = ns_per(t, rig.accesses);
    tr.note(name, rig.accesses, rig.digest.0);
    (name, ns)
}

/// The nine access streams on `cfg`. `seed` drives the mixed stream; the
/// others are fixed patterns.
pub fn memsys(cfg: &MachineConfig, seed: u64, tr: &mut Tracer) -> Layers {
    let base = 0x10_0000u64;
    let far = cfg.num_cpus - 1;
    let mut l = Layers::new();

    // One line this CPU already owns, over and over: the MRU filter.
    l.push(stream(
        cfg,
        "machine.memsys.private_hit_ns",
        |r| r.access(0, LOAD, base, 1),
        |r| (0..ACCESSES).for_each(|_| r.access(0, LOAD, base, 1)),
        tr,
    ));

    // 512 lines (64 KB) round and round: every access a different line, all
    // resident in L2.
    l.push(stream(
        cfg,
        "machine.memsys.l2_hit_ns",
        |r| (0..512).for_each(|i| r.access(0, LOAD, base + i * LINE, 600)),
        |r| (0..ACCESSES).for_each(|i| r.access(0, LOAD, base + (i % 512) * LINE, 10)),
        tr,
    ));

    // 300 k lines (37 MB) in order: every access misses to memory and no
    // other cache holds the line.
    l.push(stream(
        cfg,
        "machine.memsys.stream_miss_ns",
        |_| {},
        |r| (0..ACCESSES).for_each(|i| r.access(0, LOAD, base + (i % 300_000) * LINE, 600)),
        tr,
    ));

    // Every other CPU holds its own 1 MB clean; CPU 0 sweeps all of them,
    // more than its L3 keeps, so each access misses and snoops a clean copy.
    let others = (cfg.num_cpus - 1) as u64;
    let region_lines = (1u64 << 20) / LINE;
    l.push(stream(
        cfg,
        "machine.memsys.snoop_miss_ns",
        |r| {
            for cpu in 1..=others {
                for i in 0..region_lines {
                    let addr = base + ((cpu - 1) * region_lines + i) * LINE;
                    r.access(cpu as usize, LOAD, addr, 600);
                }
            }
        },
        |r| {
            let lines = others * region_lines;
            (0..ACCESSES).for_each(|i| r.access(0, LOAD, base + (i % lines) * LINE, 600))
        },
        tr,
    ));

    // CPU 0 writes a line, the far CPU reads it: each read finds the line
    // modified in the other cache.
    l.push(stream(
        cfg,
        "machine.memsys.pingpong_hitm_ns",
        |_| {},
        |r| {
            for i in 0..ACCESSES / 2 {
                let addr = base + (i % 16) * LINE;
                r.access(0, AccessKind::Store, addr, 250);
                r.access(far, LOAD, addr, 250);
            }
        },
        tr,
    ));

    // Both CPUs read a line, then CPU 0 writes it: an upgrade that
    // invalidates the other copy.
    l.push(stream(
        cfg,
        "machine.memsys.store_upgrade_ns",
        |_| {},
        |r| {
            for i in 0..ACCESSES / 3 {
                let addr = base + (i % 64) * LINE;
                r.access(0, LOAD, addr, 250);
                r.access(1, LOAD, addr, 250);
                r.access(0, AccessKind::Store, addr, 250);
            }
        },
        tr,
    ));

    // CPU 1 reads a line, CPU 0 prefetches it exclusive: ownership taken
    // from a clean sharer ahead of use.
    l.push(stream(
        cfg,
        "machine.memsys.prefetch_excl_ns",
        |_| {},
        |r| {
            for i in 0..ACCESSES / 2 {
                let addr = base + (i % 4096) * LINE;
                r.access(1, LOAD, addr, 300);
                r.access(0, AccessKind::Prefetch { excl: true }, addr, 300);
            }
        },
        tr,
    ));

    // cc-NUMA only: the far node touches every page first, so it is their
    // home; CPU 0 then streams the rest of each page from remote memory.
    if matches!(cfg.topology, Topology::Numa { .. }) {
        let page = cfg.numa_page_bytes as u64;
        let pages = 2_400u64;
        let per_page = page / LINE - 1;
        l.push(stream(
            cfg,
            "machine.memsys.numa_remote_miss_ns",
            |r| (0..pages).for_each(|p| r.access(far, LOAD, base + p * page, 600)),
            |r| {
                for i in 0..ACCESSES {
                    let (p, k) = ((i / per_page) % pages, i % per_page);
                    r.access(0, LOAD, base + p * page + (k + 1) * LINE, 600);
                }
            },
            tr,
        ));
    }

    // Seeded mix: any CPU, loads, stores and prefetches, over 2 MB.
    l.push(stream(
        cfg,
        "machine.memsys.mixed_seeded_ns",
        |_| {},
        |r| {
            let mut rng = SplitMix::new(seed);
            let cpus = r.stats.len() as u64;
            for _ in 0..ACCESSES {
                let kind = match rng.below(8) {
                    0 | 1 => AccessKind::Store,
                    2 => AccessKind::Prefetch { excl: false },
                    3 => AccessKind::Prefetch { excl: true },
                    _ => LOAD,
                };
                let addr = base + rng.below((2 << 20) / 8) * 8;
                r.access(rng.below(cpus) as usize, kind, addr, 50);
            }
        },
        tr,
    ));
    l
}

// --------------------------------------------------------------------- isa

/// Decode, encode and lower every instruction of `image`'s main text,
/// enough times over to reach about a million calls each.
pub fn isa(image: &CodeImage) -> Layers {
    let words = &image.words()[..image.main_len() as usize];
    let insns: Vec<_> = words.iter().filter_map(|&w| decode(w).ok()).collect();
    let reps = (1_000_000 / words.len().max(1)).max(1);
    let calls = (reps * insns.len()) as u64;

    let t = Instant::now();
    for _ in 0..reps {
        for &w in words {
            let _ = black_box(decode(black_box(w)));
        }
    }
    let decode_ns = ns_per(t, (reps * words.len()) as u64);
    let t = Instant::now();
    for _ in 0..reps {
        for i in &insns {
            black_box(encode(black_box(i)));
        }
    }
    let encode_ns = ns_per(t, calls);
    let t = Instant::now();
    for _ in 0..reps {
        for i in &insns {
            black_box(MicroOp::lower(black_box(*i)));
        }
    }
    let lower_ns = ns_per(t, calls);
    vec![
        ("isa.decode_ns", decode_ns),
        ("isa.encode_ns", encode_ns),
        ("isa.lower_ns", lower_ns),
    ]
}

// ---------------------------------------------------------------- pipeline

const PIPELINE_QUANTUM: u64 = 500;
const PIPELINE_PERIOD: u64 = 2_000;

/// The monitoring half of COBRA's hook, stage by stage: poll the driver,
/// drain each CPU, reduce and merge — each stage on its own clock.
struct StagedMonitor {
    driver: PerfmonDriver,
    profilers: Vec<ThreadProfiler>,
    profile: SystemProfile,
    ticks: u64,
    poll_ns: u64,
    drain_ns: u64,
    samples: u64,
}

impl QuantumHook for StagedMonitor {
    fn on_quantum(&mut self, machine: &mut Machine) {
        let t = Instant::now();
        self.driver.poll(machine);
        self.poll_ns += t.elapsed().as_nanos() as u64;
        for cpu in 0..self.profilers.len() {
            let t = Instant::now();
            let batch = self.driver.drain(cpu);
            self.drain_ns += t.elapsed().as_nanos() as u64;
            self.samples += batch.len() as u64;
            let delta = self.profilers[cpu].reduce(&batch);
            self.profile.absorb(&delta);
        }
        self.ticks += 1;
    }
}

/// Mean microseconds per call of `f` over `reps` calls.
fn mean_us(reps: u32, mut f: impl FnMut()) -> f64 {
    let t = Instant::now();
    for _ in 0..reps {
        f();
    }
    ns_per(t, u64::from(reps)) / 1e3
}

/// Run `wl` under a perfmon driver at the fine quantum, then push the
/// profile it produced through trace selection, the optimizer, and — on the
/// plans the optimizer emits — the verifier and the OSR map builder.
pub fn pipeline(wl: &dyn Workload, cfg: &MachineConfig) -> Result<Layers, String> {
    let mut m = Machine::new(cfg.clone(), wl.image().clone());
    wl.init(&mut m.shared.mem);
    let mut driver = PerfmonDriver::new(
        cfg.num_cpus,
        PerfmonConfig {
            sampling_period: PIPELINE_PERIOD,
            ..PerfmonConfig::default()
        },
    );
    driver.attach(&mut m);
    let mut mon = StagedMonitor {
        driver,
        profilers: (0..cfg.num_cpus)
            .map(|cpu| ThreadProfiler::new(cpu as u32, PIPELINE_PERIOD))
            .collect(),
        profile: SystemProfile::new(LatencyBands::from_machine(cfg)),
        ticks: 0,
        poll_ns: 0,
        drain_ns: 0,
        samples: 0,
    };
    let rt = OmpRuntime {
        quantum: PIPELINE_QUANTUM,
        ..OmpRuntime::default()
    };
    wl.run(&mut m, Team::new(cfg.num_cpus), &rt, &mut mon);
    mon.driver.detach(&mut m);
    wl.verify(&m.shared.mem)
        .map_err(|e| format!("pipeline probe: {} failed verification: {e}", wl.name()))?;
    let dropped: u64 = (0..cfg.num_cpus).map(|cpu| mon.driver.dropped(cpu)).sum();
    let per_tick_us = |ns: u64| ns as f64 / mon.ticks.max(1) as f64 / 1e3;
    let mut l: Layers = vec![
        ("perfmon.poll_us_per_tick", per_tick_us(mon.poll_ns)),
        ("perfmon.drain_us_per_tick", per_tick_us(mon.drain_ns)),
        ("perfmon.samples", mon.samples as f64),
        ("perfmon.dropped", dropped as f64),
    ];

    let profile = &mon.profile;
    let trace_cfg = TraceConfig::default();
    l.push((
        "rt.trace.select_loops_us",
        mean_us(200, || {
            black_box(select_loops(black_box(profile), &trace_cfg));
        }),
    ));

    // A fresh optimizer per call, as at a run's first deciding tick; only
    // `consider` is on the clock.
    let opt_cfg = OptimizerConfig {
        warmup_ticks: 0,
        ..OptimizerConfig::default()
    };
    let image = wl.image();
    let mut consider_ns = 0u64;
    let mut plans: Vec<PatchPlan> = Vec::new();
    const CONSIDER_REPS: u64 = 50;
    for _ in 0..CONSIDER_REPS {
        let mut opt = Optimizer::new(opt_cfg, image.clone());
        let t = Instant::now();
        let actions = black_box(opt.consider(black_box(profile)));
        consider_ns += t.elapsed().as_nanos() as u64;
        plans = actions
            .into_iter()
            .filter_map(|a| match a {
                PlanAction::Apply(p) => Some(p),
                PlanAction::Revert { .. } => None,
            })
            .collect();
    }
    l.push((
        "rt.optimizer.consider_us",
        consider_ns as f64 / CONSIDER_REPS as f64 / 1e3,
    ));

    // Per plan, so the numbers do not scale with how many the profile
    // happened to produce.
    let n = plans.len().max(1) as f64;
    let window = opt_cfg.trace.entry_window_slots;
    let mut rejected = 0u64;
    l.push((
        "verify.check_plan_us",
        mean_us(200, || {
            for p in &plans {
                rejected += u64::from(verify_plan(image, black_box(p), window).is_err());
            }
        }) / n,
    ));
    l.push((
        "verify.check_seed_us",
        mean_us(200, || {
            for p in &plans {
                rejected += u64::from(check_seed(image, black_box(p.loop_head)).is_err());
            }
        }) / n,
    ));
    let traced: Vec<&PatchPlan> = plans.iter().filter(|p| p.trace.is_some()).collect();
    let nt = traced.len().max(1) as f64;
    let map_of = |p: &PatchPlan| {
        let t = p.trace.as_ref().expect("filtered on trace");
        OsrMap::for_trace(p.id, p.loop_head, p.back_edge, t.expected_start)
    };
    l.push((
        "osr.map_build_us",
        mean_us(200, || {
            for p in &traced {
                black_box(map_of(p));
            }
        }) / nt,
    ));
    let maps: Vec<OsrMap> = traced.iter().map(|p| map_of(p)).collect();
    l.push((
        "verify.check_osr_map_us",
        mean_us(200, || {
            for (p, map) in traced.iter().zip(&maps) {
                let t = p.trace.as_ref().expect("filtered on trace");
                rejected += u64::from(
                    check_osr_map(image, black_box(map), p.kind.into(), &t.insns).is_err(),
                );
            }
        }) / nt,
    ));
    l.push(("verify.plans_checked", plans.len() as f64));
    if rejected > 0 {
        return Err(format!(
            "pipeline probe: the verifier rejected plans the optimizer emitted ({rejected} rejections)"
        ));
    }
    Ok(l)
}

// ------------------------------------------------------------------- store

/// Save and load each of `snapshots` through a `Store` under `scratch`.
pub fn store(snapshots: &[Snapshot], scratch: &Path, seed: u64) -> Result<Layers, String> {
    let dir = scratch.join(format!("store-probe-{}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let st = Store::new(&dir);
    const REPS: u32 = 20;
    let n = (snapshots.len().max(1) * REPS as usize) as f64;
    let mut bytes = 0u64;
    let mut skipped = 0u64;
    let mut save_ns = 0u64;
    let mut load_ns = 0u64;
    let mut failure = None;
    for _ in 0..REPS {
        for s in snapshots {
            let t = Instant::now();
            let saved = st.save(s);
            save_ns += t.elapsed().as_nanos() as u64;
            let t = Instant::now();
            let lr = st.load(&s.key);
            load_ns += t.elapsed().as_nanos() as u64;
            skipped += lr.skipped_records;
            match saved {
                Ok(path) => bytes += std::fs::metadata(&path).map_or(0, |m| m.len()),
                Err(e) => failure = Some(e),
            }
            if lr.snapshot.as_ref() != Some(s) {
                failure.get_or_insert(format!("snapshot {} did not round-trip", s.key));
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    if let Some(e) = failure {
        return Err(format!("store probe: {e}"));
    }
    let mut l: Layers = vec![
        ("store.save_ms", save_ns as f64 / n / 1e6),
        ("store.load_ms", load_ns as f64 / n / 1e6),
        ("store.snapshot_bytes", bytes as f64 / n),
        ("store.skipped_records", skipped as f64),
    ];
    l.extend(merge(seed)?);
    Ok(l)
}

/// `merge_unordered` over 64 seeded single-run snapshots of one key: the
/// fold at the heart of the fleet's shard workers.
pub fn merge(seed: u64) -> Result<Layers, String> {
    let mut rng = SplitMix::new(seed);
    let snaps: Vec<Snapshot> = (0..64).map(|_| seeded_snapshot(key(0), &mut rng)).collect();
    let folded = merge_unordered(&snaps)?;
    if folded.runs != 64 {
        return Err(format!("merge probe: folded {} runs of 64", folded.runs));
    }
    Ok(vec![(
        "store.merge_unordered_us",
        mean_us(200, || {
            let _ = black_box(merge_unordered(black_box(&snaps)));
        }),
    )])
}

// ------------------------------------------------------------------- fleet

/// Encode and decode seeded upload frames against a `Vec<u8>`.
pub fn frames(seed: u64) -> Result<Layers, String> {
    let mut rng = SplitMix::new(seed);
    let requests: Vec<Request> = (0..256)
        .map(|_| Request::Upload {
            snapshot: seeded_snapshot(key(rng.below(32)), &mut rng),
            image_words: None,
        })
        .collect();
    const REPS: u64 = 20;
    let calls = REPS * requests.len() as u64;
    let mut wire: Vec<Vec<u8>> = Vec::new();
    let t = Instant::now();
    for _ in 0..REPS {
        wire.clear();
        for r in &requests {
            let mut buf = Vec::new();
            write_frame(&mut buf, black_box(r))?;
            wire.push(buf);
        }
    }
    let encode_us = ns_per(t, calls) / 1e3;
    let t = Instant::now();
    for _ in 0..REPS {
        for (buf, sent) in wire.iter().zip(&requests) {
            let got: Option<Request> = read_frame(&mut buf.as_slice())?;
            if got.as_ref() != Some(sent) {
                return Err("frame probe: a frame did not round-trip".into());
            }
        }
    }
    let decode_us = ns_per(t, calls) / 1e3;
    let bytes: usize = wire.iter().map(Vec::len).sum();
    Ok(vec![
        ("fleet.frame_encode_us", encode_us),
        ("fleet.frame_decode_us", decode_us),
        ("fleet.frame_bytes", bytes as f64 / wire.len() as f64),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_a_function_of_its_seed() {
        let draw = |seed| {
            let mut r = SplitMix::new(seed);
            (0..4).map(|_| r.next()).collect::<Vec<_>>()
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
        // Reference values of SplitMix64 from seed 0.
        assert_eq!(draw(0)[0], 0xe220_a839_7b1d_cdaf);
        assert!((0..100).all(|_| SplitMix::new(3).below(10) < 10));
    }
}
