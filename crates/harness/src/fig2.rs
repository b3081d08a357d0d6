//! Figure 2: the compiler-generated Itanium assembly of the DAXPY kernel.
//!
//! Prints the `minicc`-generated binary for the Figure 1 source — the
//! pre-loop prefetch burst and the software-pipelined `.b1_22`-style loop
//! with its per-iteration `lfetch.nt1` — in icc-like syntax.

use cobra_isa::disasm;
use cobra_kernels::{Daxpy, DaxpyParams, PrefetchPolicy, Workload};
use cobra_machine::MachineConfig;

/// Render the Figure 2 reproduction.
pub(crate) fn run() -> String {
    let cfg = MachineConfig::smp4();
    let daxpy = Daxpy::build(
        DaxpyParams::new(128 * 1024, 1),
        &PrefetchPolicy::aggressive(),
        cfg.mem_bytes,
    );
    let image = daxpy.image();
    let mut out = String::new();
    out.push_str("Figure 2 reproduction: minicc-generated code for the OpenMP DAXPY kernel\n");
    out.push_str("(cf. icc 9.1 -O2: 6-line prefetch burst for y[], then a software-pipelined\n");
    out.push_str(" loop with one lfetch.nt1 per array per iteration, ~1200 bytes ahead)\n\n");
    out.push_str(&disasm::disasm_image(image));
    out.push_str(&format!(
        "\nstatic counts: {} lfetch, {} br.ctop ({} slots total)\n",
        image.count_matching(|i| i.is_lfetch()),
        image.count_matching(|i| matches!(i.op, cobra_isa::insn::Op::BrCtop { .. })),
        image.main_len(),
    ));
    out
}

#[cfg(test)]
mod tests {
    #[test]
    fn figure2_listing_has_the_icc_shape() {
        let text = super::run();
        // The burst and the pipelined loop body of Figure 2.
        assert!(text.contains("lfetch.nt1"), "{text}");
        assert!(text.contains("(p16) ldfd f32="), "{text}");
        assert!(text.contains("(p21) fma.d f44=f6,f37,f43"), "{text}");
        assert!(text.contains("(p23) stfd"), "{text}");
        assert!(text.contains("br.ctop"), "{text}");
        assert!(text.contains("8 lfetch"), "{text}");
    }
}
