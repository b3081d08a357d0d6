//! Ablation studies: how sensitive are the paper's effects to the design
//! parameters the reproduction had to choose?
//!
//! Five sweeps, each isolating one knob:
//!
//! 1. **Prefetch distance** — the Figure 2 code prefetches ~1200 bytes
//!    ahead; the boundary overrun (and with it the whole §2 pathology)
//!    scales with the distance.
//! 2. **Prefetch burst length** — the pre-loop burst controls how much of
//!    a chunk's start is covered (and stolen from the neighbour).
//! 3. **Bus occupancy** — prefetch storms only hurt when transactions
//!    contend; a wider bus shrinks the noprefetch win.
//! 4. **COBRA sampling period** — the overhead/reactivity trade-off of
//!    §3.1's "relatively less frequent sampling".
//! 5. **Deployment mode** — in-place patching vs trace-cache redirection
//!    (the paper's ADORE-style deployment) must perform identically.

use cobra_kernels::workload::{execute_plain, Workload};
use cobra_kernels::{Daxpy, DaxpyParams, PrefetchPolicy};
use cobra_machine::{Machine, MachineConfig};
use cobra_omp::{OmpRuntime, Team};
use cobra_rt::{Cobra, CobraConfig, DeployMode, Strategy};

use crate::sweep::parallel_map;
use crate::table::{pct, Table};

/// Steady-state DAXPY cycles at 128K/4t for a given policy and machine.
fn daxpy_cycles(policy: &PrefetchPolicy, cfg: &MachineConfig) -> u64 {
    let run = |reps: usize| {
        let d = Daxpy::build(DaxpyParams::new(128 * 1024, reps), policy, cfg.mem_bytes);
        let (_m, r) = execute_plain(&d, cfg, Team::new(4));
        r.cycles
    };
    run(24) - run(8)
}

/// Sweep 1: prefetch distance.
pub fn distance(workers: usize) -> Table {
    let distances = vec![300i64, 600, 1200, 2400, 4800];
    let rows = parallel_map(distances, workers, |&d| {
        let cfg = MachineConfig::smp4();
        let policy = PrefetchPolicy {
            distance_bytes: d,
            ..PrefetchPolicy::aggressive()
        };
        let with = daxpy_cycles(&policy, &cfg);
        let without = daxpy_cycles(&PrefetchPolicy::none(), &cfg);
        (d, with, without)
    });
    let mut t = Table::new(
        "ablation: prefetch distance (DAXPY 128K, 4 threads, smp4)",
        &["distance_bytes", "prefetch cycles", "noprefetch gain"],
    );
    for (d, with, without) in rows {
        t.row(vec![
            d.to_string(),
            with.to_string(),
            pct(with as f64 / without as f64 - 1.0),
        ]);
    }
    t
}

/// Sweep 2: burst length.
pub fn burst(workers: usize) -> Table {
    let bursts = vec![0u32, 2, 6, 12, 24];
    let rows = parallel_map(bursts, workers, |&b| {
        let cfg = MachineConfig::smp4();
        let policy = PrefetchPolicy {
            burst_lines: b,
            ..PrefetchPolicy::aggressive()
        };
        (b, daxpy_cycles(&policy, &cfg))
    });
    let mut t = Table::new(
        "ablation: pre-loop burst length (DAXPY 128K, 4 threads, smp4)",
        &["burst_lines", "cycles"],
    );
    for (b, cycles) in rows {
        t.row(vec![b.to_string(), cycles.to_string()]);
    }
    t
}

/// Sweep 3: bus occupancy (contention model).
pub fn bus(workers: usize) -> Table {
    let occupancies = vec![2u64, 4, 6, 12, 24];
    let rows = parallel_map(occupancies, workers, |&occ| {
        let mut cfg = MachineConfig::smp4();
        cfg.bus_occupancy = occ;
        let with = daxpy_cycles(&PrefetchPolicy::aggressive(), &cfg);
        let without = daxpy_cycles(&PrefetchPolicy::none(), &cfg);
        (occ, with, without)
    });
    let mut t = Table::new(
        "ablation: bus occupancy cycles/transaction (DAXPY 128K, 4 threads)",
        &["occupancy", "prefetch cycles", "noprefetch gain"],
    );
    for (occ, with, without) in rows {
        t.row(vec![
            occ.to_string(),
            with.to_string(),
            pct(with as f64 / without as f64 - 1.0),
        ]);
    }
    t
}

fn cobra_daxpy(cfg_mut: impl Fn(&mut CobraConfig)) -> (u64, usize, u64) {
    let machine_cfg = MachineConfig::smp4();
    let wl = Daxpy::build(
        DaxpyParams::new(128 * 1024, 48),
        &PrefetchPolicy::aggressive(),
        machine_cfg.mem_bytes,
    );
    let mut m = Machine::new(machine_cfg.clone(), wl.image().clone());
    wl.init(&mut m.shared.mem);
    let mut ccfg = CobraConfig::default();
    ccfg.optimizer.strategy = Strategy::NoPrefetch;
    cfg_mut(&mut ccfg);
    let mut cobra = Cobra::builder().config(ccfg).attach(&mut m);
    let rt = OmpRuntime {
        quantum: 20_000,
        ..OmpRuntime::default()
    };
    let run = wl.run(&mut m, Team::new(4), &rt, &mut cobra);
    let report = cobra.detach(&mut m);
    wl.verify(&m.shared.mem).expect("verified");
    (run.cycles, report.applied.len(), report.overhead_cycles)
}

/// Sweep 4: COBRA sampling period (overhead vs reactivity).
pub fn sampling(workers: usize) -> Table {
    let periods = vec![500u64, 1000, 2000, 4000, 8000];
    let rows = parallel_map(periods, workers, |&period| {
        let (cycles, applied, overhead) = cobra_daxpy(|c| {
            c.perfmon.sampling_period = period;
        });
        (period, cycles, applied, overhead)
    });
    let mut t = Table::new(
        "ablation: COBRA sampling period (DAXPY 128K, 4 threads, noprefetch strategy)",
        &["period_insts", "cycles", "deployments", "overhead_cycles"],
    );
    for (p, cycles, applied, overhead) in rows {
        t.row(vec![
            p.to_string(),
            cycles.to_string(),
            applied.to_string(),
            overhead.to_string(),
        ]);
    }
    t
}

/// Sweep 5: deployment mode (in-place vs trace cache).
pub fn deploy(workers: usize) -> Table {
    let modes = vec![DeployMode::InPlace, DeployMode::TraceCache];
    let rows = parallel_map(modes, workers, |&mode| {
        let (cycles, applied, _) = cobra_daxpy(|c| {
            c.optimizer.deploy = mode;
        });
        (mode, cycles, applied)
    });
    let mut t = Table::new(
        "ablation: deployment mode (DAXPY 128K, 4 threads, noprefetch strategy)",
        &["mode", "cycles", "deployments"],
    );
    for (mode, cycles, applied) in rows {
        t.row(vec![
            format!("{mode:?}"),
            cycles.to_string(),
            applied.to_string(),
        ]);
    }
    t
}

/// Run all ablation sweeps.
pub fn run_all(workers: usize, markdown: bool) -> String {
    let mut out = String::new();
    for t in [
        distance(workers),
        burst(workers),
        bus(workers),
        sampling(workers),
        deploy(workers),
    ] {
        out.push_str(&t.render(markdown));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deploy_modes_agree_on_outcome() {
        let t = deploy(2);
        assert_eq!(t.rows.len(), 2);
        let cycles: Vec<u64> = t.rows.iter().map(|r| r[1].parse().unwrap()).collect();
        let diff = (cycles[0] as f64 - cycles[1] as f64).abs() / cycles[0] as f64;
        assert!(
            diff < 0.02,
            "in-place and trace-cache deployment within 2%: {cycles:?}"
        );
        // Both actually deployed something.
        for r in &t.rows {
            assert!(r[2].parse::<u64>().unwrap() > 0);
        }
    }

    #[test]
    fn longer_distance_does_not_shrink_the_pathology() {
        let t = distance(4);
        // Parse the gain column ("+12.3%") for the shortest and longest rows.
        let gain = |row: &Vec<String>| row[2].trim_end_matches('%').parse::<f64>().unwrap();
        let short = gain(&t.rows[0]);
        let long = gain(&t.rows[t.rows.len() - 1]);
        assert!(
            long >= short - 1.0,
            "boundary overrun should not shrink with distance: {short} vs {long}"
        );
    }
}
