//! Cross-crate integration tests: the full stack from ISA through machine,
//! OpenMP runtime, workloads, and the COBRA framework.

use cobra::kernels::workload::{execute_plain, Workload};
use cobra::kernels::{npb, Daxpy, DaxpyParams, PrefetchPolicy};
use cobra::machine::{Event, Machine, MachineConfig};
use cobra::omp::{OmpRuntime, Team};
use cobra::rt::{Cobra, Strategy, TelemetrySink};

mod common;

/// Every benchmark binary decodes cleanly and carries the symbols and
/// structure the optimizer relies on.
#[test]
fn all_npb_binaries_decode_and_are_bundle_aligned() {
    let cfg = MachineConfig::smp4();
    for &b in &npb::Benchmark::ALL {
        let wl = npb::build(b, &PrefetchPolicy::aggressive(), cfg.mem_bytes);
        let image = wl.image();
        for addr in 0..image.len() {
            image.insn(addr).expect("every word decodes");
        }
        assert_eq!(image.len() % cobra::isa::SLOTS_PER_BUNDLE, 0);
        assert!(
            image.symbols().count() >= 1,
            "{}: named entry points",
            b.name()
        );
    }
}

/// The three smallest coherent benchmarks verify on both machines under
/// every static policy (numerical correctness is policy-independent).
#[test]
fn npb_verifies_across_machines_and_policies() {
    for (cfg, threads) in [(MachineConfig::smp4(), 4), (MachineConfig::altix8(), 8)] {
        for policy in [PrefetchPolicy::aggressive(), PrefetchPolicy::none()] {
            for b in [npb::Benchmark::Bt, npb::Benchmark::Cg, npb::Benchmark::Is] {
                let wl = npb::build(b, &policy, cfg.mem_bytes);
                // execute_plain panics if verification fails.
                let (_m, run) = execute_plain(&*wl, &cfg, Team::new(threads));
                assert!(run.cycles > 0, "{} on {}", b.name(), cfg.name);
            }
        }
    }
}

/// The whole simulation (and therefore every experiment) is deterministic:
/// two identical runs produce identical cycle counts and event totals.
#[test]
fn simulation_is_deterministic() {
    let cfg = MachineConfig::smp4();
    let run = || {
        let d = Daxpy::build(
            DaxpyParams::new(64 * 1024, 6),
            &PrefetchPolicy::aggressive(),
            cfg.mem_bytes,
        );
        let (m, r) = execute_plain(&d, &cfg, Team::new(4));
        (
            r.cycles,
            m.total_stats().get(Event::BusMemory),
            m.total_stats().get(Event::L3Miss),
        )
    };
    assert_eq!(run(), run());
}

/// COBRA runs are deterministic too: the monitors and the optimization
/// stage run on the simulator's thread in a fixed order, so not only the
/// outcome but the whole telemetry record sequence repeats.
#[test]
fn cobra_runs_are_deterministic() {
    let cfg = MachineConfig::smp4();
    let run = || {
        let wl = Daxpy::build(
            DaxpyParams::new(128 * 1024, 24),
            &PrefetchPolicy::aggressive(),
            cfg.mem_bytes,
        );
        let mut m = Machine::new(cfg.clone(), wl.image().clone());
        wl.init(&mut m.shared.mem);
        let mut cobra = Cobra::builder().attach(&mut m);
        let rt = OmpRuntime {
            quantum: 20_000,
            ..OmpRuntime::default()
        };
        let r = wl.run(&mut m, Team::new(4), &rt, &mut cobra);
        let report = cobra.detach(&mut m);
        (r.cycles, report.applied.len(), report.samples_forwarded)
    };
    assert_eq!(run(), run());

    // Tournaments, OSR arming and every event category at a fine quantum:
    // the report and the full record sequence (`seq` and event) repeat.
    let traced_run = || {
        let wl = npb::build(
            npb::Benchmark::Cg,
            &PrefetchPolicy::aggressive(),
            cfg.mem_bytes,
        );
        let mut m = Machine::new(cfg.clone(), wl.image().clone());
        wl.init(&mut m.shared.mem);
        let (sink, log) = TelemetrySink::memory();
        let mut cobra = Cobra::builder()
            .strategy(Strategy::Adaptive)
            .candidates(true)
            .osr(true)
            .telemetry(sink)
            .attach(&mut m);
        let rt = OmpRuntime {
            quantum: 2_000,
            ..OmpRuntime::default()
        };
        wl.run(&mut m, Team::new(4), &rt, &mut cobra);
        let report = cobra.detach(&mut m);
        assert!(report.candidates_trialed > 0, "the run drives tournaments");
        let records = log.lock().unwrap().records().to_vec();
        assert_eq!(report.telemetry_dropped, 0);
        common::assert_log_replays_to(&records, &report);
        assert!(report.osr_migrations > 0, "the run migrates mid-loop");
        (format!("{report:?}"), records)
    };
    let (report_a, records_a) = traced_run();
    let (report_b, records_b) = traced_run();
    assert_eq!(report_a, report_b);
    assert_eq!(records_a.len(), records_b.len());
    for (a, b) in records_a.iter().zip(&records_b) {
        assert_eq!(a, b, "telemetry record order must repeat");
    }
}

/// Coherent misses cost more on the cc-NUMA machine than on the SMP for
/// the same sharing-heavy workload — the structural reason the paper's
/// Altix speedups dwarf the SMP ones.
#[test]
fn numa_pays_more_for_the_same_sharing() {
    let run = |cfg: &MachineConfig, threads: usize| {
        let d = Daxpy::build(
            DaxpyParams::new(128 * 1024, 12),
            &PrefetchPolicy::aggressive(),
            cfg.mem_bytes,
        );
        let (m, r) = execute_plain(&d, cfg, Team::new(threads));
        let t = m.total_stats();
        // Cycles per coherent event proxies the per-miss penalty.
        r.cycles as f64 / t.coherent_events().max(1) as f64
    };
    let smp = run(&MachineConfig::smp4(), 4);
    let altix = run(&MachineConfig::altix8(), 4);
    assert!(
        altix > smp,
        "per-coherent-event cost must be higher on NUMA: altix {altix:.1} vs smp {smp:.1}"
    );
}

/// A COBRA deployment on one machine leaves the workload's numerics exactly
/// equal to the unoptimized run (bit-for-bit).
#[test]
fn patching_preserves_numerics_bit_for_bit() {
    let cfg = MachineConfig::smp4();
    let params = DaxpyParams::new(128 * 1024, 24);

    let wl = Daxpy::build(params, &PrefetchPolicy::aggressive(), cfg.mem_bytes);
    let (m_base, _) = execute_plain(&wl, &cfg, Team::new(4));

    let wl2 = Daxpy::build(params, &PrefetchPolicy::aggressive(), cfg.mem_bytes);
    let mut m = Machine::new(cfg.clone(), wl2.image().clone());
    wl2.init(&mut m.shared.mem);
    let mut cobra = Cobra::builder()
        .strategy(Strategy::NoPrefetch)
        .attach(&mut m);
    let rt = OmpRuntime {
        quantum: 20_000,
        ..OmpRuntime::default()
    };
    wl2.run(&mut m, Team::new(4), &rt, &mut cobra);
    let report = cobra.detach(&mut m);
    assert!(
        !report.applied.is_empty(),
        "deployment expected: {}",
        report.summary()
    );

    let n = params.n();
    let base = m_base.shared.mem.read_f64_slice(wl.y_addr(), n);
    let patched = m.shared.mem.read_f64_slice(wl2.y_addr(), n);
    assert_eq!(
        base, patched,
        "prefetch rewriting must never change results"
    );
}

/// EP and IS show (almost) no coherent misses — the reason the paper
/// excludes them from Figures 5-7.
#[test]
fn ep_and_is_are_coherence_quiet() {
    let cfg = MachineConfig::smp4();
    for (b, quiet_limit) in [(npb::Benchmark::Ep, 30u64), (npb::Benchmark::Is, 2000u64)] {
        let wl = npb::build(b, &PrefetchPolicy::aggressive(), cfg.mem_bytes);
        let (m, _) = execute_plain(&*wl, &cfg, Team::new(4));
        let hitm = m.total_stats().get(Event::BusRdHitm);
        assert!(
            hitm <= quiet_limit,
            "{}: {} HITMs, expected a coherence-quiet benchmark",
            b.name(),
            hitm
        );
    }
}
