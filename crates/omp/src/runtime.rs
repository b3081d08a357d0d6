//! Fork/join execution of parallel regions on the simulated machine, with a
//! per-quantum hook through which COBRA observes and patches the program
//! while it runs.

use cobra_isa::CodeAddr;
use cobra_machine::{CoreStatus, Machine};

use crate::team::{abi, Team};

/// What a caller can set of the runtime: how often the hook runs.
#[derive(Debug, Clone, Copy)]
pub struct OmpRuntime {
    /// Simulation quantum between hook invocations (perfmon polling /
    /// COBRA patch points).
    pub quantum: u64,
}

impl Default for OmpRuntime {
    fn default() -> Self {
        OmpRuntime { quantum: 50_000 }
    }
}

/// Cycles charged per fork/join (thread wakeup, implicit barrier).
const FORK_OVERHEAD: u64 = 800;

/// A region running longer than this is deadlocked (a barrier nobody
/// reaches) or runaway.
const MAX_REGION_CYCLES: u64 = 2_000_000_000;

/// What happened during one region execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegionStats {
    /// Cycles from fork to join (including fork overhead).
    pub cycles: u64,
    /// Team threads that terminated with a guest memory fault instead of a
    /// clean `hlt`. The region still joins; the faulting thread's partial
    /// work is whatever it completed before the fault.
    pub faulted_threads: usize,
}

/// Events a driver can observe while a region runs. COBRA's framework
/// implements this to poll perfmon and deploy patches at safe points.
pub trait QuantumHook {
    /// Called with the machine paused at a quantum boundary (a safe point:
    /// no instruction is mid-flight, so patching the image is race-free).
    fn on_quantum(&mut self, machine: &mut Machine);

    /// Called when a team is forked (thread creation — the moment COBRA
    /// spawns a monitoring thread per working thread, Fig. 4).
    fn on_fork(&mut self, machine: &mut Machine, team: Team) {
        let _ = (machine, team);
    }

    /// Called after all team threads joined.
    fn on_join(&mut self, machine: &mut Machine) {
        let _ = machine;
    }
}

/// A no-op hook for running without COBRA attached.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullHook;

impl QuantumHook for NullHook {
    fn on_quantum(&mut self, _machine: &mut Machine) {}
}

impl OmpRuntime {
    /// Execute one `parallel for` region: fork `team.num_threads` threads
    /// (thread `t` on CPU `t`), each running the region body at `entry` over
    /// its static chunk of `[lo, hi)`, then join.
    ///
    /// Region bodies receive their chunk and identity per [`abi`] and must
    /// end with `hlt`.
    ///
    /// # Panics
    /// Panics if the region exceeds `MAX_REGION_CYCLES` (a deadlocked
    /// barrier or a runaway loop — a workload bug worth failing loudly on).
    #[allow(clippy::too_many_arguments)]
    pub fn parallel_for(
        &self,
        machine: &mut Machine,
        team: Team,
        entry: CodeAddr,
        lo: i64,
        hi: i64,
        user_args: &[i64],
        hook: &mut dyn QuantumHook,
    ) -> RegionStats {
        assert!(
            team.num_threads <= machine.num_cpus(),
            "team larger than machine"
        );
        assert!(
            user_args.len() <= abi::MAX_USER_ARGS,
            "too many user arguments"
        );
        let start = machine.cycle();

        // Fork: model thread-wakeup cost before any useful work.
        machine.shared.cycle += FORK_OVERHEAD;

        let chunks = team.static_chunks(lo, hi);
        for (tid, &(c_lo, c_hi)) in chunks.iter().enumerate() {
            let mut args = vec![c_lo, c_hi, tid as i64, team.num_threads as i64];
            args.extend_from_slice(user_args);
            machine.spawn_thread(tid, entry, &args);
        }
        hook.on_fork(machine, team);

        let mut elapsed = 0u64;
        loop {
            let r = machine.run(self.quantum);
            elapsed += r.cycles;
            hook.on_quantum(machine);
            if r.halted {
                break;
            }
            assert!(
                elapsed <= MAX_REGION_CYCLES,
                "parallel region exceeded {MAX_REGION_CYCLES} cycles (deadlock?)"
            );
        }

        let faulted_threads = (0..machine.num_cpus())
            .filter(|&cpu| machine.core(cpu).status == CoreStatus::Faulted)
            .count();
        machine.release_halted();
        hook.on_join(machine);
        RegionStats {
            cycles: machine.cycle() - start,
            faulted_threads,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cobra_isa::insn::{CmpRel, Op};
    use cobra_isa::{Assembler, Insn};
    use cobra_machine::MachineConfig;

    /// Region body: for i in [lo,hi): A[i] = tid  (A base in r12, i64 array).
    fn store_tid_program() -> cobra_isa::CodeImage {
        let mut a = Assembler::new();
        a.symbol("body");
        // r4 = A + 8*lo ; r5 = hi - lo (trip count)
        a.emit(Insn::new(Op::ShlI {
            dest: 4,
            src: abi::R_LO,
            count: 3,
        }));
        a.emit(Insn::new(Op::Add {
            dest: 4,
            r2: 4,
            r3: abi::R_ARG0,
        }));
        a.emit(Insn::new(Op::Sub {
            dest: 5,
            r2: abi::R_HI,
            r3: abi::R_LO,
        }));
        // empty chunk?
        let done = a.new_label();
        a.emit(Insn::new(Op::CmpI {
            p1: 6,
            p2: 7,
            rel: CmpRel::Ge,
            imm: 0,
            r3: 5,
        }));
        a.br_cond(6, done);
        a.addi(5, 5, -1);
        a.mov_to_lc(5);
        let top = a.new_label();
        a.bind(top);
        a.st8(0, abi::R_TID, 4, 8);
        a.br_cloop(top);
        a.bind(done);
        a.hlt();
        a.finish()
    }

    #[test]
    fn parallel_for_covers_range_with_static_chunks() {
        let image = store_tid_program();
        let mut m = Machine::new(MachineConfig::smp4(), image);
        let base = 0x1_0000i64;
        let n = 100i64;
        let rt = OmpRuntime::default();
        let stats = rt.parallel_for(&mut m, Team::new(4), 0, 0, n, &[base], &mut NullHook);
        assert!(stats.cycles > 0);
        let team = Team::new(4);
        let chunks = team.static_chunks(0, n);
        for (tid, (lo, hi)) in chunks.into_iter().enumerate() {
            for i in lo..hi {
                let v = m.shared.mem.read_u64((base + 8 * i) as u64) as i64;
                assert_eq!(v, tid as i64, "element {i}");
            }
        }
    }

    #[test]
    fn serial_region_runs_whole_range_on_cpu0() {
        let image = store_tid_program();
        let mut m = Machine::new(MachineConfig::smp4(), image);
        let base = 0x2_0000i64;
        let rt = OmpRuntime::default();
        rt.parallel_for(&mut m, Team::new(1), 0, 0, 50, &[base], &mut NullHook);
        for i in 0..50 {
            assert_eq!(m.shared.mem.read_u64((base + 8 * i) as u64), 0);
        }
        // Only CPU 0 retired instructions.
        assert!(m.stats()[0].get(cobra_machine::Event::InstRetired) > 0);
        assert_eq!(m.stats()[1].get(cobra_machine::Event::InstRetired), 0);
    }

    #[test]
    fn fork_overhead_is_charged() {
        // The fork's cost lands before any thread runs: the hook sees it at
        // fork time, and the region's cycles include it.
        struct AtFork(u64);
        impl QuantumHook for AtFork {
            fn on_quantum(&mut self, _m: &mut Machine) {}
            fn on_fork(&mut self, m: &mut Machine, _team: Team) {
                self.0 = m.cycle();
            }
        }
        let image = store_tid_program();
        let mut m = Machine::new(MachineConfig::smp4(), image);
        let start = m.cycle();
        let mut hook = AtFork(0);
        let s = OmpRuntime::default().parallel_for(
            &mut m,
            Team::new(2),
            0,
            0,
            4,
            &[0x3_0000],
            &mut hook,
        );
        assert_eq!(hook.0 - start, FORK_OVERHEAD);
        assert!(s.cycles > FORK_OVERHEAD);
    }

    #[test]
    fn hook_sees_fork_quantum_join() {
        struct Counting {
            forks: usize,
            quanta: usize,
            joins: usize,
        }
        impl QuantumHook for Counting {
            fn on_quantum(&mut self, _m: &mut Machine) {
                self.quanta += 1;
            }
            fn on_fork(&mut self, _m: &mut Machine, team: Team) {
                assert_eq!(team.num_threads, 3);
                self.forks += 1;
            }
            fn on_join(&mut self, _m: &mut Machine) {
                self.joins += 1;
            }
        }
        let image = store_tid_program();
        let mut m = Machine::new(MachineConfig::smp4(), image);
        let rt = OmpRuntime { quantum: 50 };
        let mut hook = Counting {
            forks: 0,
            quanta: 0,
            joins: 0,
        };
        rt.parallel_for(&mut m, Team::new(3), 0, 0, 300, &[0x4_0000], &mut hook);
        assert_eq!(hook.forks, 1);
        assert_eq!(hook.joins, 1);
        assert!(hook.quanta >= 2, "small quantum must trigger repeatedly");
    }

    #[test]
    fn empty_chunks_halt_cleanly() {
        let image = store_tid_program();
        let mut m = Machine::new(MachineConfig::smp4(), image);
        let rt = OmpRuntime::default();
        // Range of 2 over 4 threads: threads 2 and 3 get empty chunks.
        let s = rt.parallel_for(&mut m, Team::new(4), 0, 0, 2, &[0x5_0000], &mut NullHook);
        assert!(s.cycles > 0);
        assert_eq!(s.faulted_threads, 0);
    }

    #[test]
    fn faulting_thread_terminates_region_without_host_panic() {
        // The array base is far beyond data memory, so every store faults;
        // threads with empty chunks halt cleanly.
        let image = store_tid_program();
        let mut m = Machine::new(MachineConfig::smp4(), image);
        let rt = OmpRuntime::default();
        let bad_base = i64::MAX - 1024;
        let s = rt.parallel_for(&mut m, Team::new(4), 0, 0, 2, &[bad_base], &mut NullHook);
        assert_eq!(s.faulted_threads, 2, "both non-empty chunks fault");
        // The machine is reusable: faulted cores were released at join.
        let s2 = rt.parallel_for(&mut m, Team::new(4), 0, 0, 8, &[0x6_0000], &mut NullHook);
        assert_eq!(s2.faulted_threads, 0);
        for i in 0..8 {
            let v = m.shared.mem.read_u64((0x6_0000 + 8 * i) as u64);
            assert!(v < 4, "element {i} written by a valid tid");
        }
    }

    #[test]
    #[should_panic(expected = "team larger than machine")]
    fn oversized_team_rejected() {
        let image = store_tid_program();
        let mut m = Machine::new(MachineConfig::smp4(), image);
        OmpRuntime::default().parallel_for(&mut m, Team::new(8), 0, 0, 8, &[0], &mut NullHook);
    }
}
