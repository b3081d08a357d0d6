//! The memory system under both engines, on whole machines.
//!
//! `MemSystem` has one path: its directory (one word per coherence line,
//! two bits per CPU) is the only record of MESI state, and every snoop
//! visits the CPUs it names, under `HostAccel::Fast` and
//! `HostAccel::Reference` alike. What the engines still do differently is
//! the order and grouping in which cores issue their accesses, so this
//! suite runs random multithreaded programs over the memory op mix
//! (`.bias` loads and `.excl` prefetches included, in `br.cloop` loops and
//! software-pipelined `br.ctop` ones) on both evaluation machines and
//! requires equal cycles, per-CPU event counters, DEAR latches and overflow
//! captures, data memory, registers, drain times, snoop stalls and the MESI
//! state of every line.
//!
//! The directory itself is held to the cache arrays by
//! `memsys::tests::raw_access_sequences_keep_the_directory_exact_{smp,altix}`:
//! adversarial access sequences over a small, set-aliasing line pool, with
//! every CPU's bits non-zero exactly when its L3 holds the line and a line
//! held Modified or Exclusive held nowhere else, after every access. (Those
//! need the L3 tags, which only the crate's own tests can read.)

mod common;

use cobra_machine::{Event, SamplingConfig};
use common::{assert_equivalent, LoopParams, MEM_MIX};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Whole-machine equivalence: the fast engine and the reference produce
    /// bit-identical simulations on both evaluation machines, over the op
    /// mix that adds `.bias` loads and `.excl` prefetches, in
    /// `br.cloop` loops and software-pipelined `br.ctop` ones.
    #[test]
    fn memsys_matches_reference(
        altix in any::<bool>(),
        threads in 1usize..=8,
        share_base in any::<bool>(),
        period in 50u64..1500,
        body in prop::collection::vec(0..MEM_MIX.len() as u8, 1..8),
        iters in 1u64..48,
        pipelined in any::<bool>(),
    ) {
        let p = LoopParams {
            altix,
            threads,
            share_base,
            sampling: Some(SamplingConfig { event: Event::CpuCycles, period }),
            body: body.iter().map(|&sel| MEM_MIX[sel as usize]).collect(),
            iters,
            pipelined,
        };
        assert_equivalent(&p.cfg(), &p.program().0, 150_000);
    }
}
