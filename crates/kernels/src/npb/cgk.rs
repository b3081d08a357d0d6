//! CG — conjugate gradient with a random sparse matrix (CSR), the NPB
//! kernel that shows the largest L3-miss reductions in the paper's Fig. 6
//! (−39.5 % on the SMP).
//!
//! Unlike the sweep skeletons this is a real CG iteration: `q = A·p`,
//! `α = ρ/(p·q)`, vector updates, `ρ' = r·r`, `β = ρ'/ρ`, `p = r + β·p`.
//! The matrix-vector product walks CSR arrays sequentially (prefetched
//! streams for `vals`/`colidx`) with indirect gathers from `x` — the mix
//! that makes CG's partition-boundary sharing pattern irregular. Scalar
//! reductions are computed as per-thread partials (one cache line apart)
//! combined by the host between regions, as an OpenMP reduction clause
//! would.

use std::sync::{Arc, Mutex};

use cobra_isa::insn::{CmpRel, Insn, Op};
use cobra_isa::{Assembler, CodeAddr, CodeImage};
use cobra_machine::{DataMem, Machine};
use cobra_omp::{abi, OmpRuntime, QuantumHook, Team};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::minicc::{
    emit_coef, emit_ptr, emit_stream_loop, emit_trip_count, PrefetchPolicy, Stream, StreamLoopSpec,
    StreamOp,
};
use crate::workload::{Arena, Workload, WorkloadRun};

/// CG configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct CgParams {
    /// Matrix dimension.
    pub n: usize,
    /// Nonzeros per row (diagonal included).
    pub row_nnz: usize,
    /// CG iterations.
    pub iterations: usize,
}

impl CgParams {
    /// Class-S-like scale (NPB class S: n=1400, niter=15).
    pub(crate) fn class_s() -> Self {
        CgParams {
            n: 1400,
            row_nnz: 8,
            iterations: 15,
        }
    }
}

/// Maximum team size partial-sum slots are laid out for.
const MAX_THREADS: usize = 16;

#[derive(Debug, Clone)]
struct Layout {
    rowptr: u64,
    colidx: u64,
    vals: u64,
    x: u64,
    p: u64,
    q: u64,
    r: u64,
    z: u64,
    partials: u64,
}

/// What depends only on [`CgParams`]: the CSR matrix, the right-hand side
/// and the host mirror's solution, built once per process by [`problem`].
struct CgProblem {
    rowptr: Vec<i64>,
    colidx: Vec<i64>,
    vals: Vec<f64>,
    b: Vec<f64>,
    expect_z: Vec<f64>,
    expect_rho: f64,
}

/// The shared problem of `params`. The lock is held across the solve, so
/// threads building the same params at once compute it once.
fn problem(params: CgParams) -> Arc<CgProblem> {
    static MEMO: Mutex<Vec<(CgParams, Arc<CgProblem>)>> = Mutex::new(Vec::new());
    let mut memo = MEMO.lock().unwrap_or_else(|e| e.into_inner());
    if let Some((_, p)) = memo.iter().find(|(q, _)| *q == params) {
        return Arc::clone(p);
    }
    let p = Arc::new(Cg::solve(params));
    memo.push((params, Arc::clone(&p)));
    p
}

/// A built CG workload.
pub(crate) struct Cg {
    params: CgParams,
    image: CodeImage,
    layout: Layout,
    // region entries
    matvec: CodeAddr,
    dot_pq: CodeAddr,
    dot_rr: CodeAddr,
    axpy_z: CodeAddr,
    axpy_r: CodeAddr,
    triad_p: CodeAddr,
    problem: Arc<CgProblem>,
}

impl Cg {
    pub(crate) fn build(params: CgParams, policy: &PrefetchPolicy, mem_bytes: usize) -> Self {
        let n = params.n;
        let problem = problem(params);
        let mut arena = Arena::new(mem_bytes);
        let layout = Layout {
            rowptr: arena.alloc_i64(n + 1),
            colidx: arena.alloc_i64(problem.colidx.len()),
            vals: arena.alloc_f64(problem.vals.len()),
            x: arena.alloc_f64(n),
            p: arena.alloc_f64(n),
            q: arena.alloc_f64(n),
            r: arena.alloc_f64(n),
            z: arena.alloc_f64(n),
            // one partial per line so threads never false-share the slots
            partials: arena.alloc_bytes(128 * MAX_THREADS as u64),
        };

        let mut a = Assembler::new();
        let matvec = Self::emit_matvec(&mut a, policy);
        let dot_pq = Self::emit_dot(&mut a, "dot_pq", policy);
        let dot_rr = Self::emit_dot(&mut a, "dot_rr", policy);
        let axpy_z = Self::emit_axpy(&mut a, "axpy_z", policy);
        let axpy_r = Self::emit_axpy(&mut a, "axpy_r", policy);
        let triad_p = Self::emit_triad(&mut a, "triad_p", policy);
        let image = a.finish();

        Cg {
            params,
            image,
            layout,
            matvec,
            dot_pq,
            dot_rr,
            axpy_z,
            axpy_r,
            triad_p,
            problem,
        }
    }

    /// The random matrix, the right-hand side and the host mirror's
    /// solution of `params` (a pure function: the seed is fixed).
    fn solve(params: CgParams) -> CgProblem {
        let n = params.n;
        let mut rng = SmallRng::seed_from_u64(0xC0B7A);
        let mut rowptr = Vec::with_capacity(n + 1);
        let mut colidx = Vec::with_capacity(n * params.row_nnz);
        let mut vals = Vec::with_capacity(n * params.row_nnz);
        rowptr.push(0i64);
        for row in 0..n {
            // Diagonal first (diagonally dominant => CG is stable).
            colidx.push(row as i64);
            vals.push(10.0);
            for _ in 0..params.row_nnz - 1 {
                colidx.push(rng.gen_range(0..n) as i64);
                vals.push(rng.gen_range(-0.5..0.5));
            }
            rowptr.push(colidx.len() as i64);
        }
        let b: Vec<f64> = (0..n).map(|i| 1.0 + (i % 5) as f64 * 0.25).collect();
        let (expect_z, expect_rho) = Self::host_cg(params, &rowptr, &colidx, &vals, &b);
        CgProblem {
            rowptr,
            colidx,
            vals,
            b,
            expect_z,
            expect_rho,
        }
    }

    /// Sparse matvec region: rows `[lo,hi)` of `q = A·p`.
    /// args: r12=rowptr, r13=colidx, r14=vals, r15=p, r16=q.
    fn emit_matvec(a: &mut Assembler, policy: &PrefetchPolicy) -> CodeAddr {
        let entry = a.symbol("cg_matvec");
        emit_ptr(a, 2, abi::R_ARG0, abi::R_LO, 0, 3); // &rowptr[lo]
        emit_ptr(a, 5, abi::R_ARG0 + 4, abi::R_LO, 0, 3); // &q[lo]
        emit_trip_count(a, 21, abi::R_LO, abi::R_HI);
        let done = a.new_label();
        a.emit(Insn::new(Op::CmpI {
            p1: 6,
            p2: 7,
            rel: CmpRel::Ge,
            imm: 0,
            r3: 21,
        }));
        a.br_cond(6, done);
        let outer = a.new_label();
        a.bind(outer);
        a.ld8(0, 6, 2, 8); // start = rowptr[row]; r2 -> rowptr[row+1]
        a.ld8(0, 7, 2, 0); // end
        a.emit(Insn::new(Op::ShlI {
            dest: 17,
            src: 6,
            count: 3,
        }));
        a.emit(Insn::new(Op::Add {
            dest: 3,
            r2: 17,
            r3: abi::R_ARG0 + 2,
        })); // &vals[start]
        a.emit(Insn::new(Op::Add {
            dest: 4,
            r2: 17,
            r3: abi::R_ARG0 + 1,
        })); // &colidx[start]
        a.emit(Insn::new(Op::Sub {
            dest: 18,
            r2: 7,
            r3: 6,
        })); // count
        a.emit(Insn::new(Op::FmaD {
            dest: 9,
            f1: 0,
            f2: 0,
            f3: 0,
        })); // acc = 0
        let store = a.new_label();
        a.emit(Insn::new(Op::CmpI {
            p1: 6,
            p2: 7,
            rel: CmpRel::Ge,
            imm: 0,
            r3: 18,
        }));
        a.br_cond(6, store);
        a.addi(18, 18, -1);
        a.mov_to_lc(18);
        if policy.enabled {
            a.addi(27, 3, policy.distance_bytes as i32);
            a.addi(28, 4, policy.distance_bytes as i32);
        }
        let inner = a.new_label();
        a.bind(inner);
        a.ld8(0, 19, 4, 8); // col = colidx[k]
        a.ldfd(0, 10, 3, 8); // v = vals[k]
        if policy.enabled {
            a.emit(Insn::new(Op::Lfetch {
                base: 27,
                post_inc: 8,
                hint: cobra_isa::LfetchHint::Nt1,
                excl: policy.excl,
            }));
            a.emit(Insn::new(Op::Lfetch {
                base: 28,
                post_inc: 8,
                hint: cobra_isa::LfetchHint::Nt1,
                excl: policy.excl,
            }));
        }
        a.emit(Insn::new(Op::ShlI {
            dest: 19,
            src: 19,
            count: 3,
        }));
        a.emit(Insn::new(Op::Add {
            dest: 19,
            r2: 19,
            r3: abi::R_ARG0 + 3,
        })); // &p[col]
        a.ldfd(0, 11, 19, 0);
        a.emit(Insn::new(Op::FmaD {
            dest: 9,
            f1: 10,
            f2: 11,
            f3: 9,
        }));
        a.br_cloop(inner);
        a.bind(store);
        a.stfd(0, 9, 5, 8); // q[row] = acc
        a.addi(21, 21, -1);
        a.emit(Insn::new(Op::Cmp {
            p1: 8,
            p2: 9,
            rel: CmpRel::Gt,
            r2: 21,
            r3: 0,
        }));
        // Row loop with a data-dependent body: while-style back edge
        // (no rotating state is live across it).
        a.br_wtop(8, outer);
        a.bind(done);
        a.hlt();
        entry
    }

    /// Dot region: `partials[tid] = Σ x1[i]*x2[i]` over the chunk.
    /// args: r12=x1, r13=x2, r14=partials base.
    fn emit_dot(a: &mut Assembler, name: &str, policy: &PrefetchPolicy) -> CodeAddr {
        let entry = a.symbol(name);
        emit_ptr(a, 2, abi::R_ARG0, abi::R_LO, 0, 3);
        emit_ptr(a, 3, abi::R_ARG0 + 1, abi::R_LO, 0, 3);
        emit_trip_count(a, 20, abi::R_LO, abi::R_HI);
        a.addi(27, 2, policy.distance_bytes as i32);
        a.addi(28, 3, policy.distance_bytes as i32);
        a.emit(Insn::new(Op::FmaD {
            dest: 9,
            f1: 0,
            f2: 0,
            f3: 0,
        })); // acc = 0
        let spec = StreamLoopSpec {
            op: StreamOp::Dot,
            x1: Stream { ptr: 2, stride: 8 },
            x2: Some(Stream { ptr: 3, stride: 8 }),
            y: None,
            n: 20,
            coef: 6,
            acc: 9,
            prefetch: vec![Stream { ptr: 27, stride: 8 }, Stream { ptr: 28, stride: 8 }],
            burst: vec![],
        };
        emit_stream_loop(a, policy, &spec);
        // partials[tid] (one line per slot: tid << 7)
        a.emit(Insn::new(Op::ShlI {
            dest: 7,
            src: abi::R_TID,
            count: 7,
        }));
        a.emit(Insn::new(Op::Add {
            dest: 7,
            r2: 7,
            r3: abi::R_ARG0 + 2,
        }));
        a.stfd(0, 9, 7, 0);
        a.hlt();
        entry
    }

    /// AXPY region: `y[i] = y[i] + coef*x[i]`.
    /// args: r12=x, r13=y, r14=coef bits.
    fn emit_axpy(a: &mut Assembler, name: &str, policy: &PrefetchPolicy) -> CodeAddr {
        let entry = a.symbol(name);
        emit_coef(a, 6, abi::R_ARG0 + 2);
        emit_ptr(a, 2, abi::R_ARG0, abi::R_LO, 0, 3);
        emit_ptr(a, 3, abi::R_ARG0 + 1, abi::R_LO, 0, 3);
        emit_ptr(a, 4, abi::R_ARG0 + 1, abi::R_LO, 0, 3);
        emit_trip_count(a, 20, abi::R_LO, abi::R_HI);
        a.addi(27, 2, policy.distance_bytes as i32);
        a.addi(28, 3, policy.distance_bytes as i32);
        let spec = StreamLoopSpec {
            op: StreamOp::Daxpy,
            x1: Stream { ptr: 2, stride: 8 },
            x2: Some(Stream { ptr: 3, stride: 8 }),
            y: Some(Stream { ptr: 4, stride: 8 }),
            n: 20,
            coef: 6,
            acc: 9,
            prefetch: vec![Stream { ptr: 27, stride: 8 }, Stream { ptr: 28, stride: 8 }],
            burst: vec![4],
        };
        emit_stream_loop(a, policy, &spec);
        a.hlt();
        entry
    }

    /// Triad region: `p[i] = r[i] + coef*p[i]` (the `p = r + βp` update).
    /// args: r12=p, r13=r, r14=coef bits.
    fn emit_triad(a: &mut Assembler, name: &str, policy: &PrefetchPolicy) -> CodeAddr {
        let entry = a.symbol(name);
        emit_coef(a, 6, abi::R_ARG0 + 2);
        emit_ptr(a, 2, abi::R_ARG0, abi::R_LO, 0, 3); // p load
        emit_ptr(a, 3, abi::R_ARG0 + 1, abi::R_LO, 0, 3); // r load
        emit_ptr(a, 4, abi::R_ARG0, abi::R_LO, 0, 3); // p store
        emit_trip_count(a, 20, abi::R_LO, abi::R_HI);
        a.addi(27, 2, policy.distance_bytes as i32);
        a.addi(28, 3, policy.distance_bytes as i32);
        let spec = StreamLoopSpec {
            op: StreamOp::Triad,
            x1: Stream { ptr: 2, stride: 8 },
            x2: Some(Stream { ptr: 3, stride: 8 }),
            y: Some(Stream { ptr: 4, stride: 8 }),
            n: 20,
            coef: 6,
            acc: 9,
            prefetch: vec![Stream { ptr: 27, stride: 8 }, Stream { ptr: 28, stride: 8 }],
            burst: vec![4],
        };
        emit_stream_loop(a, policy, &spec);
        a.hlt();
        entry
    }

    fn host_matvec(rowptr: &[i64], colidx: &[i64], vals: &[f64], p: &[f64], q: &mut [f64]) {
        for row in 0..q.len() {
            let mut acc = 0.0f64;
            for k in rowptr[row] as usize..rowptr[row + 1] as usize {
                acc = vals[k].mul_add(p[colidx[k] as usize], acc);
            }
            q[row] = acc;
        }
    }

    /// Host-side CG mirror (sequential reductions; verification uses a
    /// tolerance because the simulated run sums per-thread partials).
    fn host_cg(
        params: CgParams,
        rowptr: &[i64],
        colidx: &[i64],
        vals: &[f64],
        b: &[f64],
    ) -> (Vec<f64>, f64) {
        let n = params.n;
        let mut z = vec![0.0; n];
        let mut r = b.to_vec();
        let mut p = b.to_vec();
        let mut q = vec![0.0; n];
        let mut rho: f64 = r.iter().map(|v| v * v).sum();
        for _ in 0..params.iterations {
            Self::host_matvec(rowptr, colidx, vals, &p, &mut q);
            let pq: f64 = p.iter().zip(&q).map(|(a, b)| a * b).sum();
            let alpha = rho / pq;
            for i in 0..n {
                z[i] = alpha.mul_add(p[i], z[i]);
                r[i] = (-alpha).mul_add(q[i], r[i]);
            }
            let rho_new: f64 = r.iter().map(|v| v * v).sum();
            let beta = rho_new / rho;
            rho = rho_new;
            for i in 0..n {
                p[i] = beta.mul_add(p[i], r[i]);
            }
        }
        (z, rho)
    }

    fn sum_partials(&self, machine: &Machine, nthreads: usize) -> f64 {
        (0..nthreads)
            .map(|t| {
                machine
                    .shared
                    .mem
                    .read_f64(self.layout.partials + 128 * t as u64)
            })
            .sum()
    }
}

impl Workload for Cg {
    fn name(&self) -> &'static str {
        "cg"
    }

    fn image(&self) -> &CodeImage {
        &self.image
    }

    fn init(&self, mem: &mut DataMem) {
        let (l, pb) = (&self.layout, &*self.problem);
        mem.write_i64_slice(l.rowptr, &pb.rowptr);
        mem.write_i64_slice(l.colidx, &pb.colidx);
        mem.write_f64_slice(l.vals, &pb.vals);
        mem.write_f64_slice(l.x, &pb.b);
        mem.write_f64_slice(l.p, &pb.b);
        mem.write_f64_slice(l.r, &pb.b);
        for i in 0..self.params.n as u64 {
            mem.write_f64(l.q + 8 * i, 0.0);
            mem.write_f64(l.z + 8 * i, 0.0);
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
        let n = self.params.n as i64;
        let l = &self.layout;
        // rho = r . r
        rt.parallel_for(
            machine,
            team,
            self.dot_rr,
            0,
            n,
            &[l.r as i64, l.r as i64, l.partials as i64],
            hook,
        );
        let mut rho = self.sum_partials(machine, team.num_threads);
        for _ in 0..self.params.iterations {
            // q = A p
            rt.parallel_for(
                machine,
                team,
                self.matvec,
                0,
                n,
                &[
                    l.rowptr as i64,
                    l.colidx as i64,
                    l.vals as i64,
                    l.p as i64,
                    l.q as i64,
                ],
                hook,
            );
            // alpha = rho / (p.q)
            rt.parallel_for(
                machine,
                team,
                self.dot_pq,
                0,
                n,
                &[l.p as i64, l.q as i64, l.partials as i64],
                hook,
            );
            let pq = self.sum_partials(machine, team.num_threads);
            let alpha = rho / pq;
            // z += alpha p ; r -= alpha q
            rt.parallel_for(
                machine,
                team,
                self.axpy_z,
                0,
                n,
                &[l.p as i64, l.z as i64, alpha.to_bits() as i64],
                hook,
            );
            rt.parallel_for(
                machine,
                team,
                self.axpy_r,
                0,
                n,
                &[l.q as i64, l.r as i64, (-alpha).to_bits() as i64],
                hook,
            );
            // rho' = r.r ; beta = rho'/rho
            rt.parallel_for(
                machine,
                team,
                self.dot_rr,
                0,
                n,
                &[l.r as i64, l.r as i64, l.partials as i64],
                hook,
            );
            let rho_new = self.sum_partials(machine, team.num_threads);
            let beta = rho_new / rho;
            rho = rho_new;
            // p = r + beta p
            rt.parallel_for(
                machine,
                team,
                self.triad_p,
                0,
                n,
                &[l.p as i64, l.r as i64, beta.to_bits() as i64],
                hook,
            );
        }
        WorkloadRun {
            cycles: machine.cycle() - start,
        }
    }

    fn verify(&self, mem: &DataMem) -> Result<(), String> {
        let z = mem.read_f64_slice(self.layout.z, self.params.n);
        for (i, (&got, &want)) in z.iter().zip(&self.problem.expect_z).enumerate() {
            let tol = 1e-6 * want.abs().max(1.0);
            if (got - want).abs() > tol {
                return Err(format!("z[{i}] = {got}, expected {want}"));
            }
        }
        // Residual magnitude should match the host mirror's trajectory.
        let r = mem.read_f64_slice(self.layout.r, self.params.n);
        let rho: f64 = r.iter().map(|v| v * v).sum();
        let want = self.problem.expect_rho;
        if (rho - want).abs() > 1e-6 * want.abs().max(1e-12) {
            return Err(format!("rho = {rho}, expected {want}"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::execute_plain;
    use cobra_machine::MachineConfig;

    fn small() -> CgParams {
        CgParams {
            n: 120,
            row_nnz: 5,
            iterations: 6,
        }
    }

    #[test]
    fn cg_converges_and_verifies() {
        let cfg = MachineConfig::smp4();
        for threads in [1, 2, 4] {
            let cg = Cg::build(small(), &PrefetchPolicy::aggressive(), cfg.mem_bytes);
            // Residual must actually shrink (diagonally dominant system).
            let rho0: f64 = cg.problem.b.iter().map(|v| v * v).sum();
            assert!(
                cg.problem.expect_rho < rho0 * 1e-3,
                "CG failed to converge on host mirror"
            );
            let (_m, run) = execute_plain(&cg, &cfg, Team::new(threads));
            assert!(run.cycles > 0, "threads={threads}");
        }
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn the_problem_is_built_once_per_params() {
        assert!(Arc::ptr_eq(&problem(small()), &problem(small())));
        assert!(!Arc::ptr_eq(
            &problem(small()),
            &problem(CgParams::class_s())
        ));
    }

    #[test]
    fn the_shared_problem_equals_a_fresh_solve_bit_for_bit() {
        for params in [CgParams::class_s(), small()] {
            let (shared, fresh) = (problem(params), Cg::solve(params));
            assert_eq!(shared.rowptr, fresh.rowptr);
            assert_eq!(shared.colidx, fresh.colidx);
            assert_eq!(bits(&shared.vals), bits(&fresh.vals));
            assert_eq!(bits(&shared.b), bits(&fresh.b));
            assert_eq!(bits(&shared.expect_z), bits(&fresh.expect_z));
            assert_eq!(shared.expect_rho.to_bits(), fresh.expect_rho.to_bits());
        }
    }

    #[test]
    fn four_threads_building_at_once_share_one_problem() {
        let got: Vec<Arc<CgProblem>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| s.spawn(|| problem(CgParams::class_s())))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert!(got.iter().all(|p| Arc::ptr_eq(p, &got[0])));
    }

    #[test]
    fn cg_verify_rejects_a_perturbed_solution() {
        let cfg = MachineConfig::smp4();
        let cg = Cg::build(small(), &PrefetchPolicy::aggressive(), cfg.mem_bytes);
        let (mut m, _) = execute_plain(&cg, &cfg, Team::new(4));
        let at = cg.layout.z + 8 * 7;
        let z = m.shared.mem.read_f64(at);
        // Past the 1e-6 relative tolerance `verify` allows.
        m.shared.mem.write_f64(at, z + 1e-5 * z.abs().max(1.0));
        let err = cg.verify(&m.shared.mem).unwrap_err();
        assert!(err.starts_with("z[7] = "), "{err}");
    }

    #[test]
    fn cg_verifies_under_all_policies() {
        let cfg = MachineConfig::smp4();
        for policy in [
            PrefetchPolicy::none(),
            PrefetchPolicy::aggressive(),
            PrefetchPolicy::aggressive_excl(),
        ] {
            let cg = Cg::build(small(), &policy, cfg.mem_bytes);
            execute_plain(&cg, &cfg, Team::new(4));
        }
    }

    #[test]
    fn cg_binary_contains_cloop_inner_and_ctop_vector_loops() {
        let cfg = MachineConfig::smp4();
        let cg = Cg::build(small(), &PrefetchPolicy::aggressive(), cfg.mem_bytes);
        let cloops = cg
            .image()
            .count_matching(|i| matches!(i.op, Op::BrCloop { .. }));
        let ctops = cg
            .image()
            .count_matching(|i| matches!(i.op, Op::BrCtop { .. }));
        assert!(cloops >= 1, "matvec inner loop uses br.cloop");
        assert_eq!(ctops, 5, "five pipelined vector loops");
        assert!(cg.image().count_matching(|i| i.is_lfetch()) > 10);
    }
}
