//! Property tests on the coherence protocol: for any random sequence of
//! loads/stores/prefetches from any CPUs over a small address range, the
//! MESI single-writer invariant must hold after every access, and timing
//! must be monotone (complete_at >= now).

use cobra_machine::{AccessKind, CpuStats, Event, Hpm, MachineConfig, MemSystem, Mesi};
use proptest::prelude::*;

#[derive(Debug, Clone, Copy)]
enum OpKind {
    LoadFp,
    LoadInt,
    Store,
    Prefetch,
    PrefetchExcl,
}

fn arb_op() -> impl Strategy<Value = OpKind> {
    prop_oneof![
        Just(OpKind::LoadFp),
        Just(OpKind::LoadInt),
        Just(OpKind::Store),
        Just(OpKind::Prefetch),
        Just(OpKind::PrefetchExcl),
    ]
}

fn check_invariants(ms: &MemSystem, cfg: &MachineConfig, lines: &[u64]) {
    for &line in lines {
        let addr = line * cfg.coherence_line() as u64;
        let mut m_holders = 0;
        let mut e_holders = 0;
        let mut s_holders = 0;
        for cpu in 0..cfg.num_cpus {
            match ms.peek_state(cpu, addr) {
                Some(Mesi::Modified) => m_holders += 1,
                Some(Mesi::Exclusive) => e_holders += 1,
                Some(Mesi::Shared) => s_holders += 1,
                None => {}
            }
        }
        // Single-writer: at most one M or E holder, and exclusivity means
        // no other copies at all.
        assert!(
            m_holders + e_holders <= 1,
            "line {line}: M={m_holders} E={e_holders}"
        );
        if m_holders + e_holders == 1 {
            assert_eq!(
                s_holders, 0,
                "line {line}: exclusive owner coexists with sharers"
            );
        }
    }
}

fn run_sequence(cfg: MachineConfig, ops: Vec<(usize, OpKind, u64)>) {
    let mut ms = MemSystem::new(&cfg);
    let mut stats: Vec<CpuStats> = (0..cfg.num_cpus).map(|_| CpuStats::new()).collect();
    let mut hpm: Vec<Hpm> = (0..cfg.num_cpus)
        .map(|_| Hpm::new(cfg.dear_min_latency))
        .collect();
    let line_bytes = cfg.coherence_line() as u64;
    let lines: Vec<u64> = (0..16).collect();

    let mut now = 0u64;
    for (cpu, op, line_sel) in ops {
        let cpu = cpu % cfg.num_cpus;
        let line = lines[(line_sel % lines.len() as u64) as usize];
        let addr = line * line_bytes + 8 * (line_sel % 16);
        let kind = match op {
            OpKind::LoadFp => AccessKind::Load {
                fp: true,
                bias: false,
            },
            OpKind::LoadInt => AccessKind::Load {
                fp: false,
                bias: false,
            },
            OpKind::Store => AccessKind::Store,
            OpKind::Prefetch => AccessKind::Prefetch { excl: false },
            OpKind::PrefetchExcl => AccessKind::Prefetch { excl: true },
        };
        let out = ms.access(&mut stats, &mut hpm, cpu, now, 1, kind, addr);
        assert!(out.complete_at >= now, "time went backwards");
        assert!(out.stall_until >= now);
        check_invariants(&ms, &cfg, &lines);
        now += 7; // uneven spacing exercises in-flight overlap
    }

    // Accounting identity: every coherent event implies a bus transaction.
    let total = cobra_machine::events::total(&stats);
    assert!(total.coherent_events() <= total.get(Event::BusMemory));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn mesi_single_writer_invariant_smp(
        ops in prop::collection::vec((0usize..4, arb_op(), 0u64..4096), 1..200)
    ) {
        run_sequence(MachineConfig::smp4(), ops);
    }

    #[test]
    fn mesi_single_writer_invariant_numa(
        ops in prop::collection::vec((0usize..8, arb_op(), 0u64..4096), 1..200)
    ) {
        run_sequence(MachineConfig::altix8(), ops);
    }
}
