//! Bit-identical equivalence of the memory system under the fast engine
//! against the full reference path.
//!
//! Under `HostAccel::Fast` the presence vector may skip snoop walks no
//! hierarchy could answer — but that may never change what the simulation
//! computes: cycles, every per-CPU event counter, DEAR latches and overflow
//! capture streams, data memory, architectural registers, *and the MESI
//! state of every line in every hierarchy* must match the reference
//! exactly. Two layers of property tests enforce this:
//!
//! 1. whole-machine runs over random multithreaded programs on both
//!    evaluation machines, and
//! 2. direct `MemSystem::access` sequences with adversarial interleavings
//!    of loads/stores/prefetches/atomics across CPUs sharing a small pool
//!    of lines — which reaches orderings the in-order cores never emit.

mod common;

use cobra_machine::{
    AccessKind, CpuStats, Event, HostAccel, Hpm, MachineConfig, MemSystem, SamplingConfig,
};
use common::{assert_equivalent, LoopParams, MEM_MIX};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Whole-machine equivalence: the fast engine and the reference produce
    /// bit-identical simulations on both evaluation machines, over the op
    /// mix that adds atomics, `.bias` loads and `.excl` prefetches, in
    /// `br.cloop` loops and software-pipelined `br.ctop` ones.
    #[test]
    fn memsys_matches_reference(
        altix in any::<bool>(),
        threads in 1usize..=8,
        share_base in any::<bool>(),
        period in 50u64..1500,
        body in prop::collection::vec(0u8..11, 1..8),
        iters in 1u64..48,
        pipelined in any::<bool>(),
    ) {
        let p = LoopParams {
            altix,
            threads,
            share_base,
            sampling: Some(SamplingConfig { event: Event::CpuCycles, period }),
            body: body.iter().map(|&sel| MEM_MIX[sel as usize]).collect(),
            iters,
            pipelined,
        };
        assert_equivalent(&p.cfg(), &p.program().0, 150_000);
    }
}

/// One randomly generated `MemSystem::access` call.
#[derive(Debug, Clone)]
struct RawAccess {
    cpu_sel: usize,
    dt: u64,
    kind_sel: u8,
    line_sel: u64,
    offset: u64,
}

fn raw_kind(sel: u8) -> AccessKind {
    match sel % 7 {
        0 => AccessKind::Load {
            fp: true,
            bias: false,
        },
        1 => AccessKind::Load {
            fp: false,
            bias: false,
        },
        2 => AccessKind::Load {
            fp: false,
            bias: true,
        },
        3 => AccessKind::Store,
        4 => AccessKind::Prefetch { excl: false },
        5 => AccessKind::Prefetch { excl: true },
        _ => AccessKind::Atomic,
    }
}

/// Drive the same access sequence through a fast and a reference
/// `MemSystem`; every outcome and every piece of final state must agree.
fn check_raw_sequence(cfg: MachineConfig, accesses: &[RawAccess]) {
    let cfg_fast = &cfg.clone().with_host_accel(HostAccel::fast());
    let cfg_ref = cfg.with_host_accel(HostAccel::reference());
    let n = cfg_fast.num_cpus;
    let mut fast = MemSystem::new(cfg_fast);
    let mut reference = MemSystem::new(&cfg_ref);
    let mut stats_f: Vec<CpuStats> = (0..n).map(|_| CpuStats::new()).collect();
    let mut stats_r: Vec<CpuStats> = (0..n).map(|_| CpuStats::new()).collect();
    let mut hpm_f: Vec<Hpm> = (0..n)
        .map(|_| Hpm::new(cfg_fast.dear_min_latency))
        .collect();
    let mut hpm_r: Vec<Hpm> = (0..n)
        .map(|_| Hpm::new(cfg_fast.dear_min_latency))
        .collect();
    // A small pool of lines so CPUs collide constantly.
    let lines = 24u64;
    let line_bytes = cfg_fast.coherence_line() as u64;
    let mut now = 0u64;
    for (i, acc) in accesses.iter().enumerate() {
        now += acc.dt;
        let cpu = acc.cpu_sel % n;
        let kind = raw_kind(acc.kind_sel);
        let addr = (acc.line_sel % lines) * line_bytes + (acc.offset % line_bytes) / 8 * 8;
        let pc = i as u32;
        let out_f = fast.access(&mut stats_f, &mut hpm_f, cpu, now, pc, kind, addr);
        let out_r = reference.access(&mut stats_r, &mut hpm_r, cpu, now, pc, kind, addr);
        prop_assert_eq!(out_f, out_r, "outcome diverged at access #{}: {:?}", i, acc);
    }
    prop_assert_eq!(&stats_f, &stats_r, "stats diverged");
    prop_assert_eq!(
        fast.bus_transactions(),
        reference.bus_transactions(),
        "bus transaction counts diverged"
    );
    for cpu in 0..n {
        for line in 0..lines {
            prop_assert_eq!(
                fast.peek_state(cpu, line * line_bytes),
                reference.peek_state(cpu, line * line_bytes),
                "MESI state diverged: cpu {} line {}",
                cpu,
                line
            );
        }
        prop_assert_eq!(fast.store_drain_time(cpu), reference.store_drain_time(cpu));
        prop_assert_eq!(
            fast.snoop_stall_pending(cpu),
            reference.snoop_stall_pending(cpu)
        );
        prop_assert_eq!(
            hpm_f[cpu].dear().map(|d| (d.pc, d.addr, d.latency)),
            hpm_r[cpu].dear().map(|d| (d.pc, d.addr, d.latency)),
            "DEAR latch diverged on cpu {}",
            cpu
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Direct access-sequence equivalence on the SMP: adversarial
    /// interleavings over a small shared line pool.
    #[test]
    fn raw_access_sequences_match_smp(
        accesses in prop::collection::vec(
            (0usize..4, 0u64..400, 0u8..7, 0u64..24, 0u64..128).prop_map(
                |(cpu_sel, dt, kind_sel, line_sel, offset)| RawAccess {
                    cpu_sel, dt, kind_sel, line_sel, offset,
                }
            ),
            1..120,
        ),
    ) {
        check_raw_sequence(MachineConfig::smp4(), &accesses);
    }

    /// The same property on the cc-NUMA machine (NUMA latency arms, remote
    /// HITM paths, per-node buses).
    #[test]
    fn raw_access_sequences_match_altix(
        accesses in prop::collection::vec(
            (0usize..8, 0u64..400, 0u8..7, 0u64..24, 0u64..128).prop_map(
                |(cpu_sel, dt, kind_sel, line_sel, offset)| RawAccess {
                    cpu_sel, dt, kind_sel, line_sel, offset,
                }
            ),
            1..120,
        ),
    ) {
        check_raw_sequence(MachineConfig::altix8(), &accesses);
    }
}

/// Spot-check the two engines at the unit level: a repeated private store
/// drains identically.
#[test]
fn repeated_private_store_is_identical_both_ways() {
    for accel in [HostAccel::reference(), HostAccel::fast()] {
        let cfg = MachineConfig::smp4().with_host_accel(accel);
        let mut ms = MemSystem::new(&cfg);
        let mut st: Vec<CpuStats> = (0..4).map(|_| CpuStats::new()).collect();
        let mut hp: Vec<Hpm> = (0..4).map(|_| Hpm::new(cfg.dear_min_latency)).collect();
        ms.access(&mut st, &mut hp, 0, 0, 1, AccessKind::Store, 0x1000);
        let mut completes = Vec::new();
        for k in 0..20u64 {
            let out = ms.access(&mut st, &mut hp, 0, 1000 + k, 1, AccessKind::Store, 0x1000);
            completes.push(out.complete_at);
        }
        // Drains chain through the single write port: each one cycle later.
        for w in completes.windows(2) {
            assert_eq!(w[1], w[0] + 1, "{accel:?}");
        }
    }
}
