//! Bring your own kernel: write an Itanium-style binary with the assembler,
//! run it under the OpenMP runtime, and let COBRA optimize it.
//!
//! The kernel is a hand-written software-pipelined STREAM-triad
//! (`c[i] = a[i] + s * b[i]`) built directly with `cobra-isa`'s assembler
//! and `minicc`'s pipelined-loop generator — the same path a compiler
//! writer would use to target this machine. The example then attaches
//! COBRA with the blanket `.excl` strategy and shows the patched
//! disassembly next to the original.
//!
//! Run with: `cargo run --release --example custom_kernel`

use cobra::isa::{disasm, Assembler};
use cobra::kernels::{
    emit_coef, emit_ptr, emit_stream_loop, emit_trip_count, PrefetchPolicy, Stream, StreamLoopSpec,
    StreamOp,
};
use cobra::machine::{Machine, MachineConfig};
use cobra::omp::{abi, OmpRuntime, Team};
use cobra::rt::{Cobra, Strategy};

const N: usize = 24 * 1024; // elements per array (192 KB each)
const REPS: usize = 24;

fn build_triad(policy: &PrefetchPolicy) -> cobra::isa::CodeImage {
    let mut a = Assembler::new();
    a.symbol("triad_body");
    // args: r12 = a[], r13 = b[], r14 = c[], r15 = s bits
    emit_coef(&mut a, 6, abi::R_ARG0 + 3);
    emit_ptr(&mut a, 2, abi::R_ARG0 + 1, abi::R_LO, 0, 3); // x1 = b
    emit_ptr(&mut a, 3, abi::R_ARG0, abi::R_LO, 0, 3); // x2 = a
    emit_ptr(&mut a, 4, abi::R_ARG0 + 2, abi::R_LO, 0, 3); // y  = c
    emit_trip_count(&mut a, 20, abi::R_LO, abi::R_HI);
    a.addi(27, 2, policy.distance_bytes as i32);
    a.addi(28, 4, policy.distance_bytes as i32);
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
    emit_stream_loop(&mut a, policy, &spec);
    a.hlt();
    a.finish()
}

fn main() {
    let cfg = MachineConfig::smp4();
    let image = build_triad(&PrefetchPolicy::aggressive());
    println!(
        "=== generated triad kernel ===\n{}",
        disasm::disasm_image(&image)
    );

    let mut machine = Machine::new(cfg.clone(), image);
    // Lay the three arrays out after the reserved low region.
    let (a_base, b_base, c_base) = (0x1_0000u64, 0x4_0000u64, 0x7_0000u64);
    let s = 3.0f64;
    let av: Vec<f64> = (0..N).map(|i| (i % 11) as f64).collect();
    let bv: Vec<f64> = (0..N).map(|i| (i % 7) as f64 * 0.5).collect();
    machine.shared.mem.write_f64_slice(a_base, &av);
    machine.shared.mem.write_f64_slice(b_base, &bv);

    let mut cobra = Cobra::builder()
        .strategy(Strategy::ExclHint)
        .attach(&mut machine);
    let rt = OmpRuntime { quantum: 20_000 };
    let team = Team::new(4);
    let entry = machine.shared.code.symbol("triad_body").unwrap();
    let args = [
        a_base as i64,
        b_base as i64,
        c_base as i64,
        s.to_bits() as i64,
    ];
    for _ in 0..REPS {
        rt.parallel_for(&mut machine, team, entry, 0, N as i64, &args, &mut cobra);
    }
    let report = cobra.detach(&mut machine);

    // Verify c = a + s*b.
    for i in (0..N).step_by(997) {
        let got = machine.shared.mem.read_f64(c_base + 8 * i as u64);
        let want = s.mul_add(bv[i], av[i]);
        assert_eq!(got, want, "c[{i}]");
    }
    println!("numerics verified; COBRA: {}", report.summary());

    if let Some(plan) = report.applied.first() {
        if let Some(entry) = plan.trace_entry {
            let image = &machine.shared.code;
            println!("\n=== optimized trace at {entry} ===");
            print!("{}", disasm::disasm_range(image, entry, image.len()));
        }
    }
}
