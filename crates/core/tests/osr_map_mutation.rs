//! Mutation testing of the `cobra-verify::check_osr_map` OSR gate.
//!
//! Mirrors the deploy-gate suite (`verify_mutation.rs`):
//!
//! * **No false rejects** — the layout-true state mapping of every trace
//!   plan the real optimizer emits for real NPB kernel loops must verify
//!   (the exact map the framework arms).
//! * **No false accepts** — every class of map corruption (wrong offset,
//!   non-total, out-of-body entries, shifted version base, truncated or
//!   diverging version body, clobbered scratch register) must be rejected
//!   on every captured map it applies to.

use std::sync::OnceLock;

use cobra_isa::{Assembler, CodeImage, Insn, NOP_SLOT_I};
use cobra_osr::OsrMap;
use cobra_verify::{check_osr_map, RewriteKind};
use proptest::prelude::*;

mod common;

/// One optimizer-emitted trace plan reduced to its OSR ingredients: the
/// pristine image, the layout-true map, the rewrite kind, and the clone
/// body the map transfers into.
struct CapturedMap {
    bench: &'static str,
    machine: &'static str,
    image: CodeImage,
    map: OsrMap,
    kind: RewriteKind,
    version: Vec<Insn>,
}

/// The layout-true OSR map of every plan in the shared corpus — exactly
/// what `Cobra::apply_action` builds before arming.
fn capture_real_maps() -> &'static Vec<CapturedMap> {
    static MAPS: OnceLock<Vec<CapturedMap>> = OnceLock::new();
    MAPS.get_or_init(|| {
        let captured: Vec<CapturedMap> = common::capture_real_plans()
            .iter()
            .map(|c| {
                let trace = c.plan.trace.as_ref().expect("every plan is a trace");
                CapturedMap {
                    bench: c.bench,
                    machine: c.machine,
                    image: c.image.clone(),
                    map: OsrMap::for_trace(
                        c.plan.id,
                        c.plan.loop_head,
                        c.plan.back_edge,
                        trace.expected_start,
                    ),
                    kind: c.plan.kind,
                    version: trace.insns.clone(),
                }
            })
            .collect();
        assert!(
            captured.len() >= 16,
            "expected a broad map corpus, got {}",
            captured.len()
        );
        captured
    })
}

/// Zero false rejects: every optimizer-emitted map verifies, forward and
/// (for the revert path) reversed-then-reversed back to itself.
#[test]
fn optimizer_emitted_maps_always_verify() {
    for c in capture_real_maps() {
        check_osr_map(&c.image, &c.map, c.kind, &c.version).unwrap_or_else(|e| {
            panic!(
                "{}/{} map at head {} falsely rejected: {e}",
                c.machine, c.bench, c.map.loop_head
            )
        });
        assert_eq!(
            c.map.reversed().reversed().redirect_pairs(),
            c.map.redirect_pairs(),
            "reversal must be an involution"
        );
    }
}

/// The corruption classes. Each returns the damaged `(map, version)` pair,
/// or `None` when the class cannot apply to this map's shape.
fn corrupt(c: &CapturedMap, class: usize, pick: usize) -> Option<(OsrMap, Vec<Insn>)> {
    let mut map = c.map.clone();
    let mut version = c.version.clone();
    let n = map.entries.len();
    match class {
        // Wrong offset: one entry points at the wrong clone slot.
        0 => map.entries[pick % n].to += 1,
        // Non-total: one body instruction has no mapping.
        1 => {
            map.entries.remove(pick % n);
        }
        // Duplicate-covering: two entries map the same source, another
        // source is uncovered.
        2 => {
            if n < 2 {
                return None;
            }
            let dup = map.entries[pick % n];
            map.entries[(pick + 1) % n] = dup;
        }
        // Entries escape the claimed body.
        3 => {
            let e = &mut map.entries[pick % n];
            e.from = map.loop_head.checked_sub(1)?;
        }
        // Shifted version base: every offset lands one slot late.
        4 => map.version_start += 1,
        // Truncated version body: shorter than the mapped range (trace
        // plans carry body + exit branch, so cut below the body length).
        5 => version.truncate(map.body_len().checked_sub(1)?),
        // Diverging version body: a slot is neither the original
        // instruction, the retargeted back edge, nor an allowed rewrite.
        6 => {
            let i = (0..map.body_len().min(version.len()))
                .map(|k| (k + pick) % map.body_len().min(version.len()))
                .find(|&k| version[k] != NOP_SLOT_I)?;
            version[i] = NOP_SLOT_I;
        }
        _ => unreachable!("unknown corruption class"),
    }
    Some((map, version))
}

const CLASSES: usize = 7;

/// 100% of corruption classes rejected on 100% of the maps they fit.
#[test]
fn every_map_corruption_class_is_rejected() {
    let maps = capture_real_maps();
    let mut applied = [0usize; CLASSES];
    for c in maps {
        for (class, count) in applied.iter_mut().enumerate() {
            let Some((bad_map, bad_version)) = corrupt(c, class, 0) else {
                continue;
            };
            *count += 1;
            assert!(
                check_osr_map(&c.image, &bad_map, c.kind, &bad_version).is_err(),
                "{}/{} class {class} map corruption accepted at head {}",
                c.machine,
                c.bench,
                c.map.loop_head
            );
        }
    }
    for (class, &n) in applied.iter().enumerate() {
        assert!(n > 0, "map corruption class {class} never applied");
    }
}

/// Clobbered scratch register: a loop that *uses* a removed prefetch's
/// post-incremented base downstream must be rejected — the register is no
/// longer version-invariant, so migrating mid-loop would observe a stale
/// address. Under its own name in a plain counted loop, or — the base in
/// the rotating region of a software-pipelined one — under the next name
/// up, past the `br.ctop`. (Synthetic: real kernels never reuse prefetch
/// cursors, which is exactly why the obligation discharges on the whole
/// NPB corpus.)
#[test]
fn clobbered_scratch_register_is_rejected() {
    for (base, reader, rotating) in [(20, 20, false), (40, 41, true)] {
        let mut a = Assembler::new();
        let top = a.new_label();
        a.bind(top);
        let head = a.here();
        a.ldfd(0, 6, 4, 8);
        a.lfetch_nt1(0, base, 64); // post-inc base ...
        a.mov_to_ec(reader); // ... still read inside the loop
        let back = if rotating {
            a.br_ctop(top)
        } else {
            a.br_cloop(top)
        };
        a.hlt();
        let image = a.finish();

        let start = cobra_isa::bundle_align(image.len());
        let map = OsrMap::for_trace(1, head, back, start);
        let mut version: Vec<Insn> = (head..=back).map(|pc| image.insn(pc).unwrap()).collect();
        // The deployed version drops the lfetch (noprefetch rewrite) and
        // retargets the back edge into the clone.
        version[1] = cobra_isa::NOP_SLOT_M;
        let idx = (back - head) as usize;
        version[idx].op = version[idx].op.with_branch_target(start).unwrap();

        let err = check_osr_map(&image, &map, RewriteKind::NoPrefetch, &version).unwrap_err();
        assert!(
            err.to_string().contains(&format!("register r{base}")),
            "expected a register-clobber violation on r{base}, got: {err}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Randomized class × map × site pick — the sampled counterpart of the
    /// exhaustive sweep.
    #[test]
    fn injected_map_corruption_never_verifies(seed in any::<u64>(), class in 0usize..CLASSES) {
        let maps = capture_real_maps();
        let c = &maps[(seed as usize) % maps.len()];
        if let Some((bad_map, bad_version)) = corrupt(c, class, (seed >> 32) as usize) {
            prop_assert!(
                check_osr_map(&c.image, &bad_map, c.kind, &bad_version).is_err(),
                "class {} map corruption accepted on {}/{}",
                class, c.machine, c.bench
            );
        }
    }
}
