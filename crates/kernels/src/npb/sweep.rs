//! The sweep-kernel engine: benchmarks expressed as sequences of
//! software-pipelined stream passes over shared grids.
//!
//! A *pass* is one `#pragma omp parallel for` loop nest flattened to a
//! strided/shifted stream operation (`dst[i*ds] (op)= coef * src[i*ss + off]`),
//! compiled by `minicc` into its own software-pipelined loop with aggressive
//! prefetching — one loop per source pass, exactly as icc compiles each
//! OpenMP loop separately (this is what makes Table 1's per-binary `lfetch`
//! counts large). The BT/SP/LU/FT/MG skeletons in [`super::sweeps`] are
//! built from pass tables.

use cobra_isa::{Assembler, CodeAddr, CodeImage};
use cobra_machine::{DataMem, Machine};
use cobra_omp::{abi, OmpRuntime, QuantumHook, Team};

use crate::minicc::{
    emit_coef, emit_stream_loop, emit_trip_count, PrefetchPolicy, Stream, StreamLoopSpec, StreamOp,
};
use crate::workload::{Arena, Workload, WorkloadRun};

/// Declaration of one grid array.
#[derive(Debug, Clone, Copy)]
pub struct ArrayDecl {
    pub name: &'static str,
    /// Elements addressable as indices `0..len`.
    pub len: usize,
    /// Extra zero-initialized elements on *each* side for shifted reads.
    pub halo: usize,
}

/// One parallel stream pass.
#[derive(Debug, Clone, Copy)]
pub struct PassSpec {
    pub label: &'static str,
    /// `Copy`/`Scale`/`Daxpy`/`Triad` (`Daxpy` reads and updates `dst`).
    pub op: StreamOp,
    /// Array written (and read, for `Daxpy`).
    pub dst: usize,
    /// Primary source array.
    pub src: usize,
    /// Second source (Triad only).
    pub src2: Option<usize>,
    /// Element offset applied to the `src` pointer (stencil shifts).
    pub src_offset: i64,
    /// Element offset applied to the `src2` pointer.
    pub src2_offset: i64,
    pub coef: f64,
    /// Elements advanced per iteration (1, 2 or 4).
    pub dst_stride: usize,
    pub src_stride: usize,
    /// Iteration count (the parallel range is `0..len`).
    pub len: usize,
}

impl PassSpec {
    /// Unit-stride pass with a source shift.
    pub fn shifted(
        label: &'static str,
        op: StreamOp,
        dst: usize,
        src: usize,
        src_offset: i64,
        coef: f64,
        len: usize,
    ) -> Self {
        PassSpec {
            label,
            op,
            dst,
            src,
            src2: None,
            src_offset,
            src2_offset: 0,
            coef,
            dst_stride: 1,
            src_stride: 1,
            len,
        }
    }

    fn validate(&self, arrays: &[ArrayDecl]) {
        let d = &arrays[self.dst];
        let s = &arrays[self.src];
        assert!(matches!(self.dst_stride, 1 | 2 | 4));
        assert!(matches!(self.src_stride, 1 | 2 | 4));
        assert!(
            self.len * self.dst_stride <= d.len,
            "{}: dst overrun",
            self.label
        );
        let lo = self.src_offset;
        let hi = self.src_offset + (self.len as i64 - 1) * self.src_stride as i64;
        assert!(
            lo >= -(s.halo as i64) && hi < (s.len + s.halo) as i64,
            "{}: src out of halo",
            self.label
        );
        if self.dst == self.src {
            assert!(
                self.op == StreamOp::Daxpy
                    && self.src_offset == 0
                    && self.src_stride == self.dst_stride,
                "{}: in-place pass with a shift would race across chunk boundaries",
                self.label
            );
        }
        if let Some(s2) = self.src2 {
            assert!(self.op == StreamOp::Triad);
            assert_ne!(
                s2, self.dst,
                "{}: Triad src2 must not alias dst",
                self.label
            );
        } else {
            assert_ne!(self.op, StreamOp::Triad);
        }
        assert_ne!(self.op, StreamOp::Dot, "sweep passes have no reductions");
    }
}

fn stride_shift(stride: usize) -> u8 {
    match stride {
        1 => 3,
        2 => 4,
        4 => 5,
        _ => unreachable!("validated"),
    }
}

/// A benchmark made of stream passes repeated for a number of iterations.
pub struct SweepKernel {
    name: &'static str,
    image: CodeImage,
    arrays: Vec<ArrayDecl>,
    /// Byte address of element 0 of each array.
    array_addr: Vec<u64>,
    passes: Vec<PassSpec>,
    entries: Vec<CodeAddr>,
    iterations: usize,
}

impl SweepKernel {
    pub fn build(
        name: &'static str,
        arrays: Vec<ArrayDecl>,
        passes: Vec<PassSpec>,
        iterations: usize,
        policy: &PrefetchPolicy,
        mem_bytes: usize,
    ) -> Self {
        for p in &passes {
            p.validate(&arrays);
        }
        let mut arena = Arena::new(mem_bytes);
        let array_addr: Vec<u64> = arrays
            .iter()
            .map(|d| arena.alloc_f64(d.len + 2 * d.halo) + 8 * d.halo as u64)
            .collect();

        let mut a = Assembler::new();
        let mut entries = Vec::with_capacity(passes.len());
        for pass in &passes {
            entries.push(Self::emit_pass_body(&mut a, pass, policy));
        }
        let image = a.finish();
        SweepKernel {
            name,
            image,
            arrays,
            array_addr,
            passes,
            entries,
            iterations,
        }
    }

    /// Emit one region body. Arguments: `r12` = effective src base (offset
    /// applied), `r13` = second-load base (Triad: src2; Daxpy: dst),
    /// `r14` = dst base, `r15` = coefficient bits.
    fn emit_pass_body(a: &mut Assembler, pass: &PassSpec, policy: &PrefetchPolicy) -> CodeAddr {
        let entry = a.symbol(format!("{}_{}", pass.label, a.here()));
        emit_coef(a, 6, abi::R_ARG0 + 3);
        let s_shift = stride_shift(pass.src_stride);
        let d_shift = stride_shift(pass.dst_stride);
        // x1 = src_eff + (lo << s_shift)
        a.emit(cobra_isa::Insn::new(cobra_isa::insn::Op::ShlI {
            dest: 2,
            src: abi::R_LO,
            count: s_shift,
        }));
        a.emit(cobra_isa::Insn::new(cobra_isa::insn::Op::Add {
            dest: 2,
            r2: 2,
            r3: abi::R_ARG0,
        }));
        let has_x2 = matches!(pass.op, StreamOp::Daxpy | StreamOp::Triad);
        if has_x2 {
            // Daxpy loads dst; Triad loads src2 — both unit-or-dst stride.
            let x2_shift = if pass.op == StreamOp::Daxpy {
                d_shift
            } else {
                stride_shift(pass.src_stride)
            };
            a.emit(cobra_isa::Insn::new(cobra_isa::insn::Op::ShlI {
                dest: 3,
                src: abi::R_LO,
                count: x2_shift,
            }));
            a.emit(cobra_isa::Insn::new(cobra_isa::insn::Op::Add {
                dest: 3,
                r2: 3,
                r3: abi::R_ARG0 + 1,
            }));
        }
        // y = dst + (lo << d_shift)
        a.emit(cobra_isa::Insn::new(cobra_isa::insn::Op::ShlI {
            dest: 4,
            src: abi::R_LO,
            count: d_shift,
        }));
        a.emit(cobra_isa::Insn::new(cobra_isa::insn::Op::Add {
            dest: 4,
            r2: 4,
            r3: abi::R_ARG0 + 2,
        }));
        emit_trip_count(a, 20, abi::R_LO, abi::R_HI);
        // Prefetch pointers: src stream and dst stream.
        a.addi(27, 2, policy.distance_bytes as i32);
        a.addi(28, 4, policy.distance_bytes as i32);

        let src_stride_b = (8 * pass.src_stride) as i32;
        let dst_stride_b = (8 * pass.dst_stride) as i32;
        let x2 = if has_x2 {
            let stride = if pass.op == StreamOp::Daxpy {
                dst_stride_b
            } else {
                src_stride_b
            };
            Some(Stream { ptr: 3, stride })
        } else {
            None
        };
        let spec = StreamLoopSpec {
            op: pass.op,
            x1: Stream {
                ptr: 2,
                stride: src_stride_b,
            },
            x2,
            y: Some(Stream {
                ptr: 4,
                stride: dst_stride_b,
            }),
            n: 20,
            coef: 6,
            acc: 9,
            prefetch: vec![
                Stream {
                    ptr: 27,
                    stride: src_stride_b,
                },
                Stream {
                    ptr: 28,
                    stride: dst_stride_b,
                },
            ],
            burst: vec![4],
        };
        emit_stream_loop(a, policy, &spec);
        a.hlt();
        entry
    }

    fn init_value(arr: usize, i: usize) -> f64 {
        ((i * 7 + arr * 13) % 23) as f64 * 0.125 - 1.0
    }

    /// Host-side mirror of the full schedule (used by `verify`).
    fn mirror(&self) -> Vec<Vec<f64>> {
        let mut data: Vec<Vec<f64>> = self
            .arrays
            .iter()
            .enumerate()
            .map(|(ai, d)| {
                let mut v = vec![0.0; d.len + 2 * d.halo];
                for i in 0..d.len {
                    v[d.halo + i] = Self::init_value(ai, i);
                }
                v
            })
            .collect();
        for _ in 0..self.iterations {
            for pass in &self.passes {
                let halo_s = self.arrays[pass.src].halo as i64;
                let halo_d = self.arrays[pass.dst].halo as i64;
                for i in 0..pass.len as i64 {
                    let sv = data[pass.src]
                        [(halo_s + i * pass.src_stride as i64 + pass.src_offset) as usize];
                    let di = (halo_d + i * pass.dst_stride as i64) as usize;
                    let out = match pass.op {
                        StreamOp::Copy => sv,
                        StreamOp::Scale => pass.coef.mul_add(sv, 0.0),
                        StreamOp::Daxpy => pass.coef.mul_add(sv, data[pass.dst][di]),
                        StreamOp::Triad => {
                            let s2 = pass.src2.expect("validated");
                            let halo_2 = self.arrays[s2].halo as i64;
                            let v2 = data[s2]
                                [(halo_2 + i * pass.src_stride as i64 + pass.src2_offset) as usize];
                            pass.coef.mul_add(sv, v2)
                        }
                        StreamOp::Dot => unreachable!("validated"),
                    };
                    data[pass.dst][di] = out;
                }
            }
        }
        data
    }
}

impl Workload for SweepKernel {
    fn name(&self) -> &'static str {
        self.name
    }

    fn image(&self) -> &CodeImage {
        &self.image
    }

    fn init(&self, mem: &mut DataMem) {
        for (ai, d) in self.arrays.iter().enumerate() {
            let base = self.array_addr[ai] - 8 * d.halo as u64;
            let mut v = vec![0.0; d.len + 2 * d.halo];
            for i in 0..d.len {
                v[d.halo + i] = Self::init_value(ai, i);
            }
            mem.write_f64_slice(base, &v);
        }
    }

    fn run(
        &self,
        machine: &mut Machine,
        team: Team,
        rt: &OmpRuntime,
        hook: &mut dyn QuantumHook,
    ) -> WorkloadRun {
        let start = machine.cycle();
        for _ in 0..self.iterations {
            for (pass, &entry) in self.passes.iter().zip(&self.entries) {
                let src_eff = (self.array_addr[pass.src] as i64) + 8 * pass.src_offset;
                let x2_eff = match pass.op {
                    StreamOp::Daxpy => self.array_addr[pass.dst] as i64,
                    StreamOp::Triad => {
                        (self.array_addr[pass.src2.expect("validated")] as i64)
                            + 8 * pass.src2_offset
                    }
                    _ => 0,
                };
                let args = [
                    src_eff,
                    x2_eff,
                    self.array_addr[pass.dst] as i64,
                    pass.coef.to_bits() as i64,
                ];
                rt.parallel_for(machine, team, entry, 0, pass.len as i64, &args, hook);
            }
        }
        WorkloadRun {
            cycles: machine.cycle() - start,
        }
    }

    fn verify(&self, mem: &DataMem) -> Result<(), String> {
        let want = self.mirror();
        for (ai, d) in self.arrays.iter().enumerate() {
            let base = self.array_addr[ai] - 8 * d.halo as u64;
            let got = mem.read_f64_slice(base, d.len + 2 * d.halo);
            for (k, (&g, &w)) in got.iter().zip(&want[ai]).enumerate() {
                if g != w {
                    return Err(format!(
                        "{}[{}] (with halo) = {g}, expected {w}",
                        d.name,
                        k as i64 - d.halo as i64
                    ));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::execute_plain;
    use cobra_machine::MachineConfig;

    fn toy_kernel(policy: &PrefetchPolicy) -> SweepKernel {
        let arrays = vec![
            ArrayDecl {
                name: "u",
                len: 512,
                halo: 16,
            },
            ArrayDecl {
                name: "r",
                len: 512,
                halo: 16,
            },
            ArrayDecl {
                name: "c",
                len: 256,
                halo: 0,
            },
        ];
        let passes = vec![
            PassSpec::shifted("scale", StreamOp::Scale, 1, 0, 0, 0.5, 512),
            PassSpec::shifted("left", StreamOp::Daxpy, 0, 1, -1, 0.25, 512),
            PassSpec::shifted("right", StreamOp::Daxpy, 0, 1, 1, 0.25, 512),
            // restriction: c[i] = 0.5 * u[2i]
            PassSpec {
                label: "restrict",
                op: StreamOp::Scale,
                dst: 2,
                src: 0,
                src2: None,
                src_offset: 0,
                src2_offset: 0,
                coef: 0.5,
                dst_stride: 1,
                src_stride: 2,
                len: 256,
            },
            // prolongation: u[2i] += 0.3 * c[i]
            PassSpec {
                label: "prolong",
                op: StreamOp::Daxpy,
                dst: 0,
                src: 2,
                src2: None,
                src_offset: 0,
                src2_offset: 0,
                coef: 0.3,
                dst_stride: 2,
                src_stride: 1,
                len: 256,
            },
            // triad: r[i] = c'[i] + 0.1 * u[i+2] with src2 = r? must not alias dst; use u as src2
            PassSpec {
                label: "triad",
                op: StreamOp::Triad,
                dst: 1,
                src: 0,
                src2: Some(0),
                src_offset: 2,
                src2_offset: -2,
                coef: 0.1,
                dst_stride: 1,
                src_stride: 1,
                len: 512,
            },
        ];
        SweepKernel::build("toy", arrays, passes, 3, policy, 8 << 20)
    }

    #[test]
    fn sweep_matches_host_mirror_for_all_team_sizes_and_policies() {
        let cfg = MachineConfig::smp4();
        for policy in [
            PrefetchPolicy::aggressive(),
            PrefetchPolicy::none(),
            PrefetchPolicy::aggressive_excl(),
        ] {
            for threads in [1, 2, 4] {
                let k = toy_kernel(&policy);
                // execute_plain panics internally if verify fails.
                let (_m, run) = execute_plain(&k, &cfg, Team::new(threads));
                assert!(run.cycles > 0);
            }
        }
    }

    #[test]
    fn each_pass_gets_its_own_loop_and_prefetches() {
        let k = toy_kernel(&PrefetchPolicy::aggressive());
        let ctops = k
            .image()
            .count_matching(|i| matches!(i.op, cobra_isa::insn::Op::BrCtop { .. }));
        assert_eq!(ctops, k.passes.len());
        let lfetch = k.image().count_matching(|i| i.is_lfetch());
        // burst 6 + 2 in-loop per pass.
        assert_eq!(lfetch, 8 * k.passes.len());
    }

    #[test]
    #[should_panic(expected = "in-place pass with a shift")]
    fn shifted_inplace_pass_rejected() {
        let arrays = vec![ArrayDecl {
            name: "u",
            len: 64,
            halo: 4,
        }];
        let passes = vec![PassSpec::shifted("bad", StreamOp::Daxpy, 0, 0, 1, 0.5, 64)];
        SweepKernel::build(
            "bad",
            arrays,
            passes,
            1,
            &PrefetchPolicy::aggressive(),
            1 << 20,
        );
    }

    #[test]
    #[should_panic(expected = "src out of halo")]
    fn out_of_halo_shift_rejected() {
        let arrays = vec![
            ArrayDecl {
                name: "u",
                len: 64,
                halo: 2,
            },
            ArrayDecl {
                name: "v",
                len: 64,
                halo: 2,
            },
        ];
        let passes = vec![PassSpec::shifted("bad", StreamOp::Daxpy, 0, 1, 5, 0.5, 64)];
        SweepKernel::build(
            "bad",
            arrays,
            passes,
            1,
            &PrefetchPolicy::aggressive(),
            1 << 20,
        );
    }
}
