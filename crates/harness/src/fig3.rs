//! Figure 3: scalability of the DAXPY kernel on the 4-way SMP under the
//! three static prefetch strategies.
//!
//! * **3(a)** `prefetch` vs `noprefetch` — paper: noprefetch runs 35 %
//!   faster at 128 KB / 2 threads and 52 % faster at 128 KB / 4 threads;
//!   at 2 MB / 1 thread prefetch wins decisively.
//! * **3(b)** `prefetch` vs `prefetch.excl` — paper: `.excl` is 18 % faster
//!   at 128 KB / 2 threads, 14 % at 4 threads, 7 % at 512 KB / 4 threads,
//!   and *slower* at 2 MB (extra writebacks).
//!
//! Cells are normalized to the 1-thread `prefetch` run of the same working
//! set, exactly like the paper's bars.

use cobra_kernels::workload::execute_plain;
use cobra_kernels::{Daxpy, DaxpyParams, PrefetchPolicy};
use cobra_machine::MachineConfig;
use cobra_omp::Team;
use serde::{Deserialize, Serialize};

use crate::sweep::parallel_map;
use crate::table::{ratio, Table};

/// Working sets of the paper's sweep.
pub const WORKING_SETS: [usize; 3] = [128 * 1024, 512 * 1024, 2 * 1024 * 1024];
/// Thread counts of the paper's sweep.
pub const THREADS: [usize; 3] = [1, 2, 4];

/// Which variant a cell measured.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Variant {
    Prefetch,
    NoPrefetch,
    PrefetchExcl,
}

impl Variant {
    pub fn name(self) -> &'static str {
        match self {
            Variant::Prefetch => "prefetch",
            Variant::NoPrefetch => "noprefetch",
            Variant::PrefetchExcl => "prefetch.excl",
        }
    }

    fn policy(self) -> PrefetchPolicy {
        match self {
            Variant::Prefetch => PrefetchPolicy::aggressive(),
            Variant::NoPrefetch => PrefetchPolicy::none(),
            Variant::PrefetchExcl => PrefetchPolicy::aggressive_excl(),
        }
    }
}

/// One measured cell.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Cell {
    pub working_set: usize,
    pub threads: usize,
    pub variant: Variant,
    pub cycles: u64,
    /// Normalized to the 1-thread prefetch run of the same working set.
    pub normalized: f64,
}

/// Full Figure 3 data set.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig3Data {
    pub cells: Vec<Cell>,
    pub reps: usize,
}

/// Outer repetitions used to reach coherence steady state (the paper runs
/// 10^6 wall-clock repetitions; the simulated crossover settles within ~10).
pub const DEFAULT_REPS: usize = 16;

/// Warm-up repetitions excluded from every measurement (the paper's 10^6
/// repetitions make the cold start invisible; we difference a long run
/// against a warm-up run to measure pure steady state).
pub const WARMUP_REPS: usize = 8;

/// Measure every (working set × threads × variant) cell: steady-state
/// cycles for `reps` repetitions, cold start excluded.
pub fn measure(reps: usize, workers: usize) -> Fig3Data {
    let mut configs = Vec::new();
    for &ws in &WORKING_SETS {
        for &threads in &THREADS {
            for variant in [
                Variant::Prefetch,
                Variant::NoPrefetch,
                Variant::PrefetchExcl,
            ] {
                configs.push((ws, threads, variant));
            }
        }
    }
    let cells_raw = parallel_map(configs, workers, |&(ws, threads, variant)| {
        let cfg = MachineConfig::smp4();
        let run_for = |r: usize| {
            let d = Daxpy::build(DaxpyParams::new(ws, r), &variant.policy(), cfg.mem_bytes);
            let (_m, run) = execute_plain(&d, &cfg, Team::new(threads));
            run.cycles
        };
        let warm = run_for(WARMUP_REPS);
        let full = run_for(WARMUP_REPS + reps);
        (ws, threads, variant, full - warm)
    });
    // Normalize to (1 thread, prefetch) per working set.
    let base = |ws: usize| {
        cells_raw
            .iter()
            .find(|&&(w, t, v, _)| w == ws && t == 1 && v == Variant::Prefetch)
            .map(|&(.., c)| c)
            .expect("baseline cell present")
    };
    let cells = cells_raw
        .iter()
        .map(|&(ws, threads, variant, cycles)| Cell {
            working_set: ws,
            threads,
            variant,
            cycles,
            normalized: cycles as f64 / base(ws) as f64,
        })
        .collect();
    Fig3Data { cells, reps }
}

impl Fig3Data {
    fn cell(&self, ws: usize, threads: usize, variant: Variant) -> &Cell {
        self.cells
            .iter()
            .find(|c| c.working_set == ws && c.threads == threads && c.variant == variant)
            .expect("cell measured")
    }

    /// Render one sub-figure as a table comparing `prefetch` to `other`.
    pub fn subfigure(&self, other: Variant) -> Table {
        let title = match other {
            Variant::NoPrefetch => {
                "Fig. 3(a): DAXPY normalized execution time — prefetch vs noprefetch (smp4)"
            }
            Variant::PrefetchExcl => {
                "Fig. 3(b): DAXPY normalized execution time — prefetch vs prefetch.excl (smp4)"
            }
            Variant::Prefetch => unreachable!("compare against a non-baseline variant"),
        };
        let mut t = Table::new(
            title,
            &["threads", "variant", "ws=128K", "ws=512K", "ws=2M"],
        );
        for &threads in &THREADS {
            for variant in [Variant::Prefetch, other] {
                let mut row = vec![threads.to_string(), variant.name().to_string()];
                for &ws in &WORKING_SETS {
                    row.push(ratio(self.cell(ws, threads, variant).normalized));
                }
                t.row(row);
            }
        }
        t
    }

    /// The paper's headline claims, with our measured counterparts.
    pub fn shape_checks(&self) -> Vec<(String, bool)> {
        let n = |ws, t, v: Variant| self.cell(ws, t, v).normalized;
        let gain = |ws, t, v: Variant| n(ws, t, Variant::Prefetch) / n(ws, t, v) - 1.0;
        vec![
            (
                format!(
                    "128K/2t: noprefetch faster than prefetch (paper +35%, ours {:+.0}%)",
                    100.0 * gain(128 * 1024, 2, Variant::NoPrefetch)
                ),
                gain(128 * 1024, 2, Variant::NoPrefetch) > 0.05,
            ),
            (
                format!(
                    "128K/4t: noprefetch faster than prefetch (paper +52%, ours {:+.0}%)",
                    100.0 * gain(128 * 1024, 4, Variant::NoPrefetch)
                ),
                gain(128 * 1024, 4, Variant::NoPrefetch) > 0.10,
            ),
            (
                "128K/1t: prefetch ~ noprefetch (cached, no sharing)".to_string(),
                (n(128 * 1024, 1, Variant::NoPrefetch) / n(128 * 1024, 1, Variant::Prefetch) - 1.0)
                    .abs()
                    < 0.10,
            ),
            (
                format!(
                    "2M/1t: prefetch much faster than noprefetch (ours {:+.0}% for noprefetch)",
                    100.0 * gain(2 * 1024 * 1024, 1, Variant::NoPrefetch)
                ),
                gain(2 * 1024 * 1024, 1, Variant::NoPrefetch) < -0.25,
            ),
            (
                format!(
                    "128K/2t: prefetch.excl faster than prefetch (paper +18%, ours {:+.0}%)",
                    100.0 * gain(128 * 1024, 2, Variant::PrefetchExcl)
                ),
                gain(128 * 1024, 2, Variant::PrefetchExcl) > 0.0,
            ),
            (
                format!(
                    "128K/4t: prefetch.excl faster than prefetch (paper +14%, ours {:+.0}%)",
                    100.0 * gain(128 * 1024, 4, Variant::PrefetchExcl)
                ),
                gain(128 * 1024, 4, Variant::PrefetchExcl) > 0.0,
            ),
            (
                format!(
                    "2M/1t: prefetch.excl not faster than prefetch (paper: slowdown; ours {:+.1}%)",
                    100.0 * gain(2 * 1024 * 1024, 1, Variant::PrefetchExcl)
                ),
                gain(2 * 1024 * 1024, 1, Variant::PrefetchExcl) <= 0.01,
            ),
        ]
    }
}

/// Render both sub-figures plus the shape checks.
pub fn render(data: &Fig3Data, markdown: bool) -> String {
    let mut out = String::new();
    for other in [Variant::NoPrefetch, Variant::PrefetchExcl] {
        let t = data.subfigure(other);
        out.push_str(&t.render(markdown));
        out.push('\n');
    }
    out.push_str(&format!("shape checks (reps = {}):\n", data.reps));
    for (desc, ok) in data.shape_checks() {
        out.push_str(&format!(
            "  [{}] {}\n",
            if ok { "ok" } else { "MISS" },
            desc
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A reduced-reps smoke of the full sweep (the real run uses
    /// `DEFAULT_REPS`; here we only exercise plumbing + normalization).
    #[test]
    fn sweep_produces_all_cells_and_normalizes() {
        let data = measure(2, 4);
        assert_eq!(data.cells.len(), 27);
        for &ws in &WORKING_SETS {
            let base = data.cell(ws, 1, Variant::Prefetch);
            assert!((base.normalized - 1.0).abs() < 1e-12);
        }
        let t = data.subfigure(Variant::NoPrefetch);
        assert_eq!(t.rows.len(), 6);
    }

    /// The §2 pathology is the prefetch stream overrunning a thread's chunk
    /// into its neighbour's: a longer prefetch distance overruns further, so
    /// what `noprefetch` gains at 128 KB / 4 threads does not shrink with it.
    #[test]
    fn longer_distance_does_not_shrink_the_pathology() {
        let cfg = MachineConfig::smp4();
        let steady = |policy: PrefetchPolicy| {
            let run = |reps: usize| {
                let d = Daxpy::build(DaxpyParams::new(128 * 1024, reps), &policy, cfg.mem_bytes);
                execute_plain(&d, &cfg, Team::new(4)).1.cycles
            };
            (run(24) - run(8)) as f64
        };
        let without = steady(PrefetchPolicy::none());
        let gain = |distance_bytes: i64| {
            let policy = PrefetchPolicy {
                distance_bytes,
                ..PrefetchPolicy::aggressive()
            };
            steady(policy) / without - 1.0
        };
        let (short, long) = (gain(300), gain(4800));
        assert!(
            long >= short - 0.01,
            "boundary overrun should not shrink with distance: {short} vs {long}"
        );
    }
}
