//! COBRA on the CG benchmark on the cc-NUMA machine.
//!
//! Runs the conjugate-gradient kernel (sparse CSR matvec + vector updates +
//! reductions) on the 8-CPU SGI-Altix-like machine — the platform where the
//! paper reports its largest gains, because remote coherent misses cost far
//! more than front-side-bus snoops. Prints per-CPU coherence statistics and
//! the COBRA deployment log.
//!
//! Run with: `cargo run --release --example npb_cg_numa`

use cobra::kernels::npb;
use cobra::kernels::workload::execute_plain;
use cobra::kernels::PrefetchPolicy;
use cobra::machine::{Event, Machine, MachineConfig};
use cobra::omp::{OmpRuntime, Team};
use cobra::rt::{Cobra, Strategy};

fn main() {
    let cfg = MachineConfig::altix8();
    let team = Team::new(8);

    let baseline = npb::build(
        npb::Benchmark::Cg,
        &PrefetchPolicy::aggressive(),
        cfg.mem_bytes,
    );
    let (m, base) = execute_plain(&*baseline, &cfg, team);
    println!("baseline cg.S on {}: {} cycles", cfg.name, base.cycles);
    println!("\nper-CPU coherence view (baseline):");
    println!(
        "{:>4} {:>10} {:>10} {:>10} {:>8}",
        "cpu", "BUS_MEM", "RD_HITM", "UPGRADE", "ratio"
    );
    for (cpu, st) in m.stats().iter().enumerate() {
        println!(
            "{:>4} {:>10} {:>10} {:>10} {:>8.3}",
            cpu,
            st.get(Event::BusMemory),
            st.get(Event::BusRdHitm),
            st.get(Event::BusUpgrade),
            st.coherent_ratio().unwrap_or(0.0),
        );
    }

    let wl = npb::build(
        npb::Benchmark::Cg,
        &PrefetchPolicy::aggressive(),
        cfg.mem_bytes,
    );
    let mut machine = Machine::new(cfg.clone(), wl.image().clone());
    wl.init(&mut machine.shared.mem);
    let mut cobra = Cobra::builder()
        .strategy(Strategy::NoPrefetch)
        .attach(&mut machine);
    let rt = OmpRuntime { quantum: 20_000 };
    let run = wl.run(&mut machine, team, &rt, &mut cobra);
    let report = cobra.detach(&mut machine);
    wl.verify(&machine.shared.mem)
        .expect("CG must still converge correctly");

    println!("\nwith COBRA (noprefetch strategy): {} cycles", run.cycles);
    println!(
        "speedup: {:+.1}%",
        100.0 * (base.cycles as f64 / run.cycles as f64 - 1.0)
    );
    println!("\n{}", report.summary());
    for p in &report.applied {
        println!("  tick {:>3}: {}", p.tick, p.description);
    }
    for r in &report.reverted {
        println!(
            "  tick {:>3}: reverted plan {} — {}",
            r.tick, r.plan_id, r.reason
        );
    }
}
