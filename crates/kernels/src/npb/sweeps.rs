//! Pass tables for the sweep-style benchmarks: BT, SP, LU (simulated CFD
//! applications) and FT, MG (grid kernels).
//!
//! Each benchmark is a class-S-scaled skeleton: the pass tables reproduce
//! the *memory structure* of the originals — per-direction stencil sweeps
//! for the CFD codes (shifts of ±1, ±N, ±N² over a flattened N³ grid),
//! long-stride butterfly passes for FT, and restriction/prolongation/smooth
//! V-cycles for MG — not their numerics. The coefficient magnitudes keep
//! the iterated values bounded. See DESIGN.md for the substitution
//! rationale.

use super::sweep::{ArrayDecl, PassSpec, SweepKernel};
use crate::minicc::{PrefetchPolicy, StreamOp};

/// Grid edge for the simulated CFD applications (class S BT/SP use 12³;
/// we use 16³ so the per-array footprint of 32 KB sits squarely in the
/// coherent-miss regime on a 256 KB L2).
const CFD_N: usize = 16;

fn cfd_arrays() -> Vec<ArrayDecl> {
    let n3 = CFD_N * CFD_N * CFD_N;
    let halo = CFD_N * CFD_N; // covers ±N² z-direction shifts
    vec![
        ArrayDecl {
            name: "u",
            len: n3,
            halo,
        },
        ArrayDecl {
            name: "rhs",
            len: n3,
            halo,
        },
    ]
}

/// BT: compute_rhs (7 passes) + x/y/z block-solves (6) + add (1).
pub(crate) fn bt(policy: &PrefetchPolicy, mem_bytes: usize) -> SweepKernel {
    let n3 = CFD_N * CFD_N * CFD_N;
    let n = CFD_N as i64;
    let (u, rhs) = (0usize, 1usize);
    let passes = vec![
        PassSpec::shifted("rhs_init", StreamOp::Scale, rhs, u, 0, 0.45, n3),
        PassSpec::shifted("rhs_xm", StreamOp::Daxpy, rhs, u, -1, 0.06, n3),
        PassSpec::shifted("rhs_xp", StreamOp::Daxpy, rhs, u, 1, 0.06, n3),
        PassSpec::shifted("rhs_ym", StreamOp::Daxpy, rhs, u, -n, 0.05, n3),
        PassSpec::shifted("rhs_yp", StreamOp::Daxpy, rhs, u, n, 0.05, n3),
        PassSpec::shifted("rhs_zm", StreamOp::Daxpy, rhs, u, -n * n, 0.04, n3),
        PassSpec::shifted("rhs_zp", StreamOp::Daxpy, rhs, u, n * n, 0.04, n3),
        PassSpec::shifted("x_solve_m", StreamOp::Daxpy, u, rhs, -1, 0.08, n3),
        PassSpec::shifted("x_solve_p", StreamOp::Daxpy, u, rhs, 1, 0.08, n3),
        PassSpec::shifted("y_solve_m", StreamOp::Daxpy, u, rhs, -n, 0.07, n3),
        PassSpec::shifted("y_solve_p", StreamOp::Daxpy, u, rhs, n, 0.07, n3),
        PassSpec::shifted("z_solve_m", StreamOp::Daxpy, u, rhs, -n * n, 0.06, n3),
        PassSpec::shifted("z_solve_p", StreamOp::Daxpy, u, rhs, n * n, 0.06, n3),
        PassSpec::shifted("add", StreamOp::Daxpy, u, rhs, 0, 0.1, n3),
    ];
    SweepKernel::build("bt", cfd_arrays(), passes, 8, policy, mem_bytes)
}

/// SP: like BT but with the extra invr/tx scaling passes of the scalar
/// penta-diagonal solver (more loops — SP's binary has the larger static
/// prefetch count in Table 1).
pub(crate) fn sp(policy: &PrefetchPolicy, mem_bytes: usize) -> SweepKernel {
    let n3 = CFD_N * CFD_N * CFD_N;
    let n = CFD_N as i64;
    let (u, rhs) = (0usize, 1usize);
    let mut passes = vec![
        PassSpec::shifted("rhs_init", StreamOp::Scale, rhs, u, 0, 0.4, n3),
        PassSpec::shifted("rhs_xm", StreamOp::Daxpy, rhs, u, -1, 0.05, n3),
        PassSpec::shifted("rhs_xp", StreamOp::Daxpy, rhs, u, 1, 0.05, n3),
        PassSpec::shifted("rhs_ym", StreamOp::Daxpy, rhs, u, -n, 0.05, n3),
        PassSpec::shifted("rhs_yp", StreamOp::Daxpy, rhs, u, n, 0.05, n3),
        PassSpec::shifted("rhs_zm", StreamOp::Daxpy, rhs, u, -n * n, 0.04, n3),
        PassSpec::shifted("rhs_zp", StreamOp::Daxpy, rhs, u, n * n, 0.04, n3),
        PassSpec::shifted("txinvr", StreamOp::Daxpy, rhs, u, 0, 0.03, n3),
    ];
    for (dir, off) in [("x", 1i64), ("y", n), ("z", n * n)] {
        passes.push(PassSpec::shifted(
            match dir {
                "x" => "x_solve_m",
                "y" => "y_solve_m",
                _ => "z_solve_m",
            },
            StreamOp::Daxpy,
            u,
            rhs,
            -off,
            0.07,
            n3,
        ));
        passes.push(PassSpec::shifted(
            match dir {
                "x" => "x_solve_p",
                "y" => "y_solve_p",
                _ => "z_solve_p",
            },
            StreamOp::Daxpy,
            u,
            rhs,
            off,
            0.07,
            n3,
        ));
        passes.push(PassSpec::shifted(
            match dir {
                "x" => "ninvr_x",
                "y" => "pinvr_y",
                _ => "tzetar_z",
            },
            StreamOp::Daxpy,
            u,
            rhs,
            0,
            0.02,
            n3,
        ));
    }
    passes.push(PassSpec::shifted(
        "add",
        StreamOp::Daxpy,
        u,
        rhs,
        0,
        0.1,
        n3,
    ));
    SweepKernel::build("sp", cfd_arrays(), passes, 8, policy, mem_bytes)
}

/// LU: SSOR — lower-triangular sweep (blts: negative shifts), upper sweep
/// (buts: positive shifts), plus the rhs and relaxation passes.
pub(crate) fn lu(policy: &PrefetchPolicy, mem_bytes: usize) -> SweepKernel {
    let n3 = CFD_N * CFD_N * CFD_N;
    let n = CFD_N as i64;
    let (u, rhs) = (0usize, 1usize);
    let passes = vec![
        PassSpec::shifted("rhs", StreamOp::Scale, rhs, u, 0, 0.5, n3),
        PassSpec::shifted("rhs_x", StreamOp::Daxpy, rhs, u, 1, 0.05, n3),
        PassSpec::shifted("rhs_y", StreamOp::Daxpy, rhs, u, n, 0.05, n3),
        PassSpec::shifted("rhs_z", StreamOp::Daxpy, rhs, u, n * n, 0.04, n3),
        PassSpec::shifted("blts_x", StreamOp::Daxpy, u, rhs, -1, 0.08, n3),
        PassSpec::shifted("blts_y", StreamOp::Daxpy, u, rhs, -n, 0.07, n3),
        PassSpec::shifted("blts_z", StreamOp::Daxpy, u, rhs, -n * n, 0.06, n3),
        PassSpec::shifted("buts_x", StreamOp::Daxpy, u, rhs, 1, 0.08, n3),
        PassSpec::shifted("buts_y", StreamOp::Daxpy, u, rhs, n, 0.07, n3),
        PassSpec::shifted("buts_z", StreamOp::Daxpy, u, rhs, n * n, 0.06, n3),
        PassSpec::shifted("ssor", StreamOp::Daxpy, u, rhs, 0, 0.12, n3),
    ];
    SweepKernel::build("lu", cfd_arrays(), passes, 8, policy, mem_bytes)
}

/// FT: butterfly-style combination passes with geometrically growing
/// strides over a complex grid (stored as interleaved re/im `f64`s),
/// ping-ponging between two buffers.
pub(crate) fn ft(policy: &PrefetchPolicy, mem_bytes: usize) -> SweepKernel {
    // 32^3 complex points as 2*32^3 f64s; the largest butterfly shift
    // bounds the processed length.
    let total = 2 * 32 * 32 * 32; // 65536 f64 = 512 KB
    let max_shift = 16384usize;
    let len = total - max_shift;
    let (z0, z1) = (0usize, 1usize);
    let arrays = vec![
        ArrayDecl {
            name: "z0",
            len: total,
            halo: 0,
        },
        ArrayDecl {
            name: "z1",
            len: total,
            halo: 0,
        },
    ];
    let mut passes = Vec::new();
    let mut src = z0;
    for (k, s) in [2i64, 8, 64, 512, 4096, 16384].into_iter().enumerate() {
        let dst = if src == z0 { z1 } else { z0 };
        passes.push(PassSpec {
            label: if k % 2 == 0 { "fftz_even" } else { "fftz_odd" },
            op: StreamOp::Triad,
            dst,
            src,
            src2: Some(src),
            src_offset: s,
            src2_offset: 0,
            coef: 0.35,
            dst_stride: 1,
            src_stride: 1,
            len,
        });
        src = dst;
    }
    // After 6 passes the data is back in z0; one checksum-style scale.
    passes.push(PassSpec::shifted(
        "evolve",
        StreamOp::Scale,
        z1,
        z0,
        0,
        0.9,
        len,
    ));
    SweepKernel::build("ft", arrays, passes, 7, policy, mem_bytes)
}

/// MG: V-cycles over three levels of a flattened grid — smooth at the fine
/// level, restrict (stride-2 gather), smooth, restrict, smooth at the
/// coarsest, then prolongate (stride-2 scatter) and smooth back up.
pub(crate) fn mg(policy: &PrefetchPolicy, mem_bytes: usize) -> SweepKernel {
    let l0 = 32 * 32 * 32; // 32768 elements, 256 KB
    let l1 = l0 / 2;
    let l2 = l0 / 4;
    let (f0, f1, f2, r0, r1, r2) = (0usize, 1, 2, 3, 4, 5);
    let arrays = vec![
        ArrayDecl {
            name: "f0",
            len: l0,
            halo: 2,
        },
        ArrayDecl {
            name: "f1",
            len: l1,
            halo: 2,
        },
        ArrayDecl {
            name: "f2",
            len: l2,
            halo: 2,
        },
        ArrayDecl {
            name: "r0",
            len: l0,
            halo: 2,
        },
        ArrayDecl {
            name: "r1",
            len: l1,
            halo: 2,
        },
        ArrayDecl {
            name: "r2",
            len: l2,
            halo: 2,
        },
    ];
    let smooth = |lbl: [&'static str; 3], f: usize, r: usize, len: usize| {
        [
            PassSpec::shifted(lbl[0], StreamOp::Scale, r, f, 0, 0.8, len),
            PassSpec::shifted(lbl[1], StreamOp::Daxpy, f, r, -1, 0.05, len),
            PassSpec::shifted(lbl[2], StreamOp::Daxpy, f, r, 1, 0.05, len),
        ]
    };
    let restrict = |lbl: &'static str, coarse: usize, fine: usize, len: usize| PassSpec {
        label: lbl,
        op: StreamOp::Scale,
        dst: coarse,
        src: fine,
        src2: None,
        src_offset: 0,
        src2_offset: 0,
        coef: 0.5,
        dst_stride: 1,
        src_stride: 2,
        len,
    };
    let prolong = |lbl: &'static str, fine: usize, coarse: usize, len: usize| PassSpec {
        label: lbl,
        op: StreamOp::Daxpy,
        dst: fine,
        src: coarse,
        src2: None,
        src_offset: 0,
        src2_offset: 0,
        coef: 0.4,
        dst_stride: 2,
        src_stride: 1,
        len,
    };
    let mut passes = Vec::new();
    passes.extend(smooth(["psinv0_r", "psinv0_m", "psinv0_p"], f0, r0, l0));
    passes.push(restrict("rprj_01", f1, f0, l1));
    passes.extend(smooth(["psinv1_r", "psinv1_m", "psinv1_p"], f1, r1, l1));
    passes.push(restrict("rprj_12", f2, f1, l2));
    passes.extend(smooth(["psinv2_r", "psinv2_m", "psinv2_p"], f2, r2, l2));
    passes.push(prolong("interp_21", f1, f2, l2));
    passes.extend(smooth(["post1_r", "post1_m", "post1_p"], f1, r1, l1));
    passes.push(prolong("interp_10", f0, f1, l1));
    passes.extend(smooth(["post0_r", "post0_m", "post0_p"], f0, r0, l0));
    SweepKernel::build("mg", arrays, passes, 6, policy, mem_bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{execute_plain, Workload};
    use cobra_machine::MachineConfig;
    use cobra_omp::Team;

    #[test]
    fn all_sweep_benchmarks_verify_on_4_threads() {
        let cfg = MachineConfig::smp4();
        for (name, k) in [
            ("bt", bt(&PrefetchPolicy::aggressive(), cfg.mem_bytes)),
            ("sp", sp(&PrefetchPolicy::aggressive(), cfg.mem_bytes)),
            ("lu", lu(&PrefetchPolicy::aggressive(), cfg.mem_bytes)),
            ("ft", ft(&PrefetchPolicy::aggressive(), cfg.mem_bytes)),
            ("mg", mg(&PrefetchPolicy::aggressive(), cfg.mem_bytes)),
        ] {
            let (_m, run) = execute_plain(&k, &cfg, Team::new(4));
            assert!(run.cycles > 0, "{name}");
        }
    }

    #[test]
    fn sweep_lfetch_counts_have_table1_shape() {
        let cfg = MachineConfig::smp4();
        let count = |k: &SweepKernel| k.image().count_matching(|i| i.is_lfetch());
        let bt_n = count(&bt(&PrefetchPolicy::aggressive(), cfg.mem_bytes));
        let sp_n = count(&sp(&PrefetchPolicy::aggressive(), cfg.mem_bytes));
        let mg_n = count(&mg(&PrefetchPolicy::aggressive(), cfg.mem_bytes));
        // SP has more loops than BT; MG has the most (Table 1 orders
        // BT 140 < SP 276, MG 419 highest of the grid codes).
        assert!(sp_n > bt_n, "sp={sp_n} bt={bt_n}");
        assert!(mg_n > sp_n, "mg={mg_n} sp={sp_n}");
        assert!(bt_n >= 100, "bt={bt_n}: hundreds of prefetches expected");
    }

    #[test]
    fn noprefetch_binaries_have_zero_lfetch() {
        let cfg = MachineConfig::smp4();
        let k = lu(&PrefetchPolicy::none(), cfg.mem_bytes);
        assert_eq!(k.image().count_matching(|i| i.is_lfetch()), 0);
    }
}
