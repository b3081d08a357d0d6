//! `compute_dense`: the issue engines alone.
//!
//! Arithmetic counted loops that never touch memory: one core running a
//! dependent add chain for 80 M guest cycles (the solo block-dispatch
//! path), then four cores running six independent add chains for 16 M
//! cycles with HPM sampling programmed as an attached run leaves it (the
//! lockstep-horizon path under the sampling gate). `machine.core` and
//! `machine.blocks` do all the work and `machine.memsys` none — about
//! 10 ns per guest cycle against 150–300 on the NPB kernels — so this is
//! where a run-loop refactor must hold its speed and a `memsys` change must
//! show nothing. Final registers are checked against the closed form.

use std::time::Instant;

use cobra_isa::insn::Op;
use cobra_isa::{Assembler, CodeImage, Insn};
use cobra_machine::{Event, Machine, MachineConfig, SamplingConfig};

use crate::calib::Inline;
use crate::scenario::{run_time, PassOut, Scenario, SimPass};
use crate::sim::{pinned_accel, CellTime, Fnv, SimOut};
use crate::span::Tracer;

const SOLO_CYCLES: u64 = 80_000_000;
const LOCKSTEP_CYCLES: u64 = 16_000_000;
/// Each half is timed in this many equal slices, each a cell with its own
/// host slowdown, so a pass is short enough to repeat several times a run.
const SLICES: u64 = 8;
/// Guest cycles between polls of the host sampler inside a slice: about
/// 7 ms of the solo half, 2 ms of the lockstep half.
const SOLO_STEP: u64 = 500_000;
/// The lockstep half is stepped at the paper's monitoring quantum, and the
/// overflow captures taken at each boundary as the perfmon driver would.
const QUANTUM: u64 = 20_000;
const SAMPLING_PERIOD: u64 = 2_000;
/// Far more iterations than either half can retire: the loops never halt.
const TRIP_COUNT: i64 = 1_000_000_000;

/// `r5 += 1; r6 += r5` per iteration. The two adds issue in one group, so
/// the second reads `r5` as it was: after `n` iterations `r6` is
/// `0 + 1 + … + (n - 1)`.
fn solo_image() -> CodeImage {
    let mut a = Assembler::new();
    a.movi(4, TRIP_COUNT);
    a.mov_to_lc(4);
    let top = a.new_label();
    a.bind(top);
    a.addi(5, 5, 1);
    a.emit(Insn::new(Op::Add {
        dest: 6,
        r2: 6,
        r3: 5,
    }));
    a.br_cloop(top);
    a.hlt();
    a.finish()
}

/// `r5..r10 += 1` per iteration: six independent chains, full issue width.
fn wide_image() -> CodeImage {
    let mut a = Assembler::new();
    a.movi(4, TRIP_COUNT);
    a.mov_to_lc(4);
    let top = a.new_label();
    a.bind(top);
    for r in 5..11 {
        a.addi(r, r, 1);
    }
    a.br_cloop(top);
    a.hlt();
    a.finish()
}

pub struct ComputeDense {
    cfg: MachineConfig,
}

impl ComputeDense {
    pub fn new() -> ComputeDense {
        ComputeDense {
            cfg: pinned_accel(MachineConfig::smp4()),
        }
    }
}

/// Fold a finished machine into the shape the simulator passes share. No
/// data memory is touched, so the registers stand in for its fingerprint.
fn sim_out(m: &Machine, regs: &[u64]) -> SimOut {
    let mut h = Fnv::default();
    regs.iter().for_each(|&r| h.word(r));
    SimOut {
        cycles: m.cycle(),
        stats: m.total_stats(),
        blocks: m.block_stats(),
        mem_fp: h.0,
        report: None,
        tick_ns: Vec::new(),
    }
}

impl Scenario for ComputeDense {
    fn pass(&mut self, tr: &mut Tracer) -> Result<PassOut, String> {
        // A traced run samples the host at each slice's ends only, as
        // `run_cell` does.
        let traced = tr.enabled();
        let root = tr.enter("pass");
        let mut pass = SimPass::default();

        // Solo half.
        let t = Instant::now();
        let s = tr.enter("kernels.build");
        let image = solo_image();
        tr.exit(s);
        let s = tr.enter("machine.new");
        let mut m = Machine::new(self.cfg.clone(), image);
        m.spawn_thread(0, 0, &[]);
        tr.exit(s);
        let mut setup = t.elapsed();
        let s = tr.enter("machine.run");
        let mut solo = Vec::new();
        for _ in 0..SLICES {
            let mark = tr.host.mark();
            let t = Instant::now();
            let mut inline = Inline::new(&mut tr.host);
            for _ in 0..SOLO_CYCLES / SLICES / SOLO_STEP {
                m.run_quantum(SOLO_STEP);
                if !traced {
                    inline.poll();
                }
            }
            let run = t.elapsed() - inline.spent;
            solo.push(CellTime {
                setup: std::mem::take(&mut setup),
                run,
                slowdown: tr.host.slowdown_since(mark),
            });
        }
        tr.exit(s);
        let (n, sum) = (m.core(0).gr(5) as u64, m.core(0).gr(6) as u64);
        let closed_form = n.wrapping_mul(n.wrapping_sub(1)) / 2;
        if n > 0 && sum == closed_form {
            pass.outs.push(sim_out(&m, &[n, sum]));
        } else {
            pass.failed += 1;
            pass.error = Some(format!(
                "solo loop: r6 = {sum}, closed form of r5 = {n} is {closed_form}"
            ));
        }

        // Four cores in lockstep, sampling programmed.
        let t = Instant::now();
        let s = tr.enter("kernels.build");
        let image = wide_image();
        tr.exit(s);
        let s = tr.enter("machine.new");
        let mut m = Machine::new(self.cfg.clone(), image);
        for cpu in 0..m.num_cpus() {
            m.shared.hpm[cpu].program_sampling(
                SamplingConfig {
                    event: Event::InstRetired,
                    period: SAMPLING_PERIOD,
                },
                0,
            );
            m.spawn_thread(cpu, 0, &[]);
        }
        tr.exit(s);
        let mut setup = t.elapsed();
        let s = tr.enter("machine.run");
        let mut captures = 0u64;
        let mut lockstep = Vec::new();
        for slice in 1..=SLICES {
            let mark = tr.host.mark();
            let t = Instant::now();
            let mut inline = Inline::new(&mut tr.host);
            while m.cycle() < slice * (LOCKSTEP_CYCLES / SLICES) {
                m.run_quantum(QUANTUM);
                for cpu in 0..m.num_cpus() {
                    captures += m.shared.hpm[cpu].take_overflows().len() as u64;
                }
                if !traced {
                    inline.poll();
                }
            }
            let run = t.elapsed() - inline.spent;
            lockstep.push(CellTime {
                setup: std::mem::take(&mut setup),
                run,
                slowdown: tr.host.slowdown_since(mark),
            });
        }
        tr.exit(s);
        let mut regs = vec![captures];
        let mut bad = None;
        for cpu in 0..m.num_cpus() {
            let core = m.core(cpu);
            let chain: Vec<u64> = (5..11).map(|r| core.gr(r) as u64).collect();
            // The six chains advance together; a core stopped mid-iteration
            // has its leading chains one ahead.
            if chain[0] == 0 || chain.iter().any(|&c| chain[0] - c > 1) {
                bad = Some(format!("core {cpu}: chains diverged: {chain:?}"));
            }
            regs.extend(chain);
        }
        let expected_captures = m.total_stats().get(Event::InstRetired) / SAMPLING_PERIOD;
        if captures.abs_diff(expected_captures) > m.num_cpus() as u64 {
            bad = Some(format!(
                "{captures} overflow captures, {expected_captures} sampling periods retired"
            ));
        }
        match bad {
            None => pass.outs.push(sim_out(&m, &regs)),
            Some(e) => {
                pass.failed += 1;
                pass.error.get_or_insert(e);
            }
        }
        tr.exit(root);

        let ns_per_cycle =
            |cells: &[CellTime], cycles: u64| run_time(cells).as_nanos() as f64 / cycles as f64;
        let core_layers = [
            (
                "machine.core.solo_ns_per_cycle",
                ns_per_cycle(&solo, SOLO_CYCLES),
            ),
            (
                "machine.core.lockstep4_ns_per_cycle",
                ns_per_cycle(&lockstep, LOCKSTEP_CYCLES),
            ),
        ];
        pass.cells = solo;
        pass.cells.extend(lockstep);
        let mut out = pass.finish(tr, root);
        out.layers.extend(core_layers);
        Ok(out)
    }
}
