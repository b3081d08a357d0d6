//! Static-variant ground truth for the NPB suite: what would each policy
//! achieve if the *compiler* had picked it (no runtime system)?
//!
//! This is the upper bound on what COBRA can recover per benchmark, and
//! the empirical basis of DESIGN.md's calibration: BT/SP/LU want
//! `noprefetch`, FT/MG want `.excl`, and no single static choice wins
//! everywhere — the paper's motivation restated at benchmark scale.

use cobra_kernels::workload::execute_plain;
use cobra_kernels::{npb, PrefetchPolicy};
use cobra_machine::{Event, MachineConfig};
use cobra_omp::Team;
use serde::{Deserialize, Serialize};

use crate::sweep::parallel_map;
use crate::table::{pct, Table};

/// One (benchmark × policy) measurement.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StaticCell {
    pub bench: String,
    pub policy: String,
    pub cycles: u64,
    pub l3_misses: u64,
    pub hitm: u64,
    pub upgrades: u64,
}

/// Measure all static variants on one machine.
pub fn measure(machine_cfg: &MachineConfig, threads: usize, workers: usize) -> Vec<StaticCell> {
    let mut jobs = Vec::new();
    for &b in &npb::Benchmark::COHERENT {
        for policy in ["prefetch", "noprefetch", "prefetch.excl"] {
            jobs.push((b, policy));
        }
    }
    parallel_map(jobs, workers, |&(b, policy_name)| {
        let policy = match policy_name {
            "prefetch" => PrefetchPolicy::aggressive(),
            "noprefetch" => PrefetchPolicy::none(),
            _ => PrefetchPolicy::aggressive_excl(),
        };
        let wl = npb::build(b, &policy, machine_cfg.mem_bytes);
        let (m, run) = execute_plain(&*wl, machine_cfg, Team::new(threads));
        let t = m.total_stats();
        StaticCell {
            bench: b.name().to_string(),
            policy: policy_name.to_string(),
            cycles: run.cycles,
            l3_misses: t.get(Event::L3Miss),
            hitm: t.get(Event::BusRdHitm),
            upgrades: t.get(Event::BusUpgrade),
        }
    })
}

/// Render the static ground-truth table.
pub fn render(cells: &[StaticCell], machine: &str, markdown: bool) -> String {
    let mut t = Table::new(
        format!("static policy ground truth — {machine} (speedup vs prefetch)"),
        &[
            "bench", "policy", "cycles", "speedup", "L3", "HITM", "upgrades",
        ],
    );
    for c in cells {
        let base = cells
            .iter()
            .find(|x| x.bench == c.bench && x.policy == "prefetch")
            .expect("baseline measured");
        t.row(vec![
            c.bench.clone(),
            c.policy.clone(),
            c.cycles.to_string(),
            pct(base.cycles as f64 / c.cycles as f64 - 1.0),
            c.l3_misses.to_string(),
            c.hitm.to_string(),
            c.upgrades.to_string(),
        ]);
    }
    t.render(markdown)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_single_static_policy_wins_everywhere() {
        let cfg = MachineConfig::smp4();
        let cells = measure(&cfg, 4, 8);
        assert_eq!(cells.len(), 18);
        // For each benchmark find the winning policy; assert at least two
        // different winners exist across the suite (the paper's argument
        // that a static compiler cannot pick one binary).
        let mut winners = std::collections::HashSet::new();
        for &b in &npb::Benchmark::COHERENT {
            let best = cells
                .iter()
                .filter(|c| c.bench == b.name())
                .min_by_key(|c| c.cycles)
                .unwrap();
            winners.insert(best.policy.clone());
        }
        assert!(
            winners.len() >= 2,
            "expected conflicting static winners, got only {winners:?}"
        );
    }
}
