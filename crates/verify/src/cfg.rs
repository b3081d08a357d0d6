//! Control-flow reconstruction over a [`CodeImage`] and the whole-image
//! invariants built on it.
//!
//! The CFG is computed on demand from the decoded words: no side tables,
//! so the verifier always sees exactly what the fetch path would see. A
//! block-free, per-instruction successor relation is enough — the checks
//! only need reachability and forward walks, never dominance.

use std::collections::HashSet;

use cobra_isa::insn::{BrKind, Insn};
use cobra_isa::{CodeAddr, CodeImage};

use crate::{VerifyError, Violation};

/// Static successors of `insn` at `addr`, at most two, with the live
/// count. Unpredicated `br.cond` is unconditional (`p0` is hard-wired
/// true); the loop-closing branches (`ctop`/`cloop`/`wtop`) and predicated
/// branches can fall through; `hlt` has none. Successors may be out of
/// bounds — callers check. The reaching-use walk under the deployment gate
/// calls this per visited instruction, so it does not allocate.
pub(crate) fn successor_pair(addr: CodeAddr, insn: &Insn) -> ([CodeAddr; 2], usize) {
    match insn.op.branch_kind() {
        Some(BrKind::Cond) => {
            let target = insn.op.branch_target().expect("br.cond has a target");
            if insn.qp == 0 {
                ([target, 0], 1)
            } else {
                ([target, addr + 1], 2)
            }
        }
        Some(_) => {
            let target = insn.op.branch_target().expect("loop branch target");
            ([target, addr + 1], 2)
        }
        None if matches!(insn.op, cobra_isa::insn::Op::Hlt) => ([0; 2], 0),
        None => ([addr + 1, 0], 1),
    }
}

/// Cap on reported violations: a corrupted image yields one violation per
/// reachable word, and nobody reads ten thousand of them.
const MAX_VIOLATIONS: usize = 64;

/// Whole-image invariants: every word reachable from the entry point
/// (address 0) or any symbol decodes, every static branch target is in
/// bounds, and no reachable path falls off the end of the image.
pub fn check_image(image: &CodeImage) -> Result<(), VerifyError> {
    let mut v: Vec<Violation> = Vec::new();
    let mut roots: Vec<CodeAddr> = vec![0];
    for (name, addr) in image.symbols() {
        // A symbol exactly at the end is a conventional end marker; past it
        // is a broken symbol table.
        if addr > image.len() {
            v.push(Violation::SymbolOutOfBounds {
                name: name.to_string(),
                addr,
            });
        } else if addr < image.len() {
            roots.push(addr);
        }
    }
    if image.is_empty() {
        return VerifyError::from_violations(v);
    }

    let mut seen: HashSet<CodeAddr> = HashSet::new();
    let mut stack = roots;
    while let Some(addr) = stack.pop() {
        if v.len() >= MAX_VIOLATIONS {
            break;
        }
        if !seen.insert(addr) {
            continue;
        }
        let insn = match image.insn(addr) {
            Ok(insn) => insn,
            Err(_) => {
                v.push(Violation::UndecodableWord { addr });
                continue;
            }
        };
        if let Some(target) = insn.op.branch_target() {
            if target >= image.len() {
                v.push(Violation::BranchTargetOutOfBounds { addr, target });
            }
        }
        let (pair, n) = successor_pair(addr, &insn);
        for &succ in &pair[..n] {
            if succ >= image.len() {
                // A branch target was reported above; anything else is a
                // fall-through off the end of the text.
                if insn.op.branch_target() != Some(succ) {
                    v.push(Violation::FallthroughPastEnd { addr });
                }
            } else {
                stack.push(succ);
            }
        }
    }
    VerifyError::from_violations(v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cobra_isa::insn::Op;
    use cobra_isa::{encode, Assembler, Insn};

    fn clean_image() -> CodeImage {
        let mut a = Assembler::new();
        a.lfetch_nt1(0, 10, 128);
        let top = a.new_label();
        a.bind(top);
        a.ldfd(16, 32, 2, 8);
        a.br_ctop(top);
        a.hlt();
        a.finish()
    }

    #[test]
    fn clean_image_verifies() {
        check_image(&clean_image()).expect("assembler output is well-formed");
    }

    #[test]
    fn unreachable_garbage_is_tolerated_but_reachable_garbage_is_not() {
        let img = clean_image();
        // Garbage *after* the hlt: unreachable, no violation.
        let mut words = img.words().to_vec();
        words.push(u64::MAX);
        let tolerated = CodeImage::from_words(words, Default::default());
        check_image(&tolerated).expect("unreachable words are not checked");

        // Garbage the entry path runs into: violation.
        let mut words = img.words().to_vec();
        words[0] = u64::MAX;
        let broken = CodeImage::from_words(words, Default::default());
        let err = check_image(&broken).unwrap_err();
        assert!(matches!(
            err.violations[0],
            Violation::UndecodableWord { addr: 0 }
        ));
    }

    #[test]
    fn out_of_bounds_branch_target_is_reported() {
        let words = vec![
            encode(&Insn::new(Op::BrCond { target: 999 })),
            encode(&Insn::new(Op::Hlt)),
        ];
        let img = CodeImage::from_words(words, Default::default());
        let err = check_image(&img).unwrap_err();
        assert!(err.violations.iter().any(|x| matches!(
            x,
            Violation::BranchTargetOutOfBounds {
                addr: 0,
                target: 999
            }
        )));
    }

    #[test]
    fn fallthrough_past_end_is_reported() {
        let words = vec![encode(&Insn::new(Op::Nop {
            unit: cobra_isa::Unit::I,
        }))];
        let img = CodeImage::from_words(words, Default::default());
        let err = check_image(&img).unwrap_err();
        assert!(matches!(
            err.violations[0],
            Violation::FallthroughPastEnd { addr: 0 }
        ));
    }

    #[test]
    fn unconditional_br_cond_has_no_fallthrough() {
        // An unpredicated br.cond at the image end with an in-bounds target
        // must NOT be flagged as falling through (p0 is hard-wired true).
        let words = vec![
            encode(&Insn::new(Op::Nop {
                unit: cobra_isa::Unit::I,
            })),
            encode(&Insn::new(Op::BrCond { target: 0 })),
        ];
        let img = CodeImage::from_words(words, Default::default());
        check_image(&img).expect("self-contained loop");
        // The predicated form can fall through — now it's a violation.
        let words = vec![
            encode(&Insn::new(Op::Nop {
                unit: cobra_isa::Unit::I,
            })),
            encode(&Insn::pred(16, Op::BrCond { target: 0 })),
        ];
        let img = CodeImage::from_words(words, Default::default());
        let err = check_image(&img).unwrap_err();
        assert!(matches!(
            err.violations[0],
            Violation::FallthroughPastEnd { addr: 1 }
        ));
    }

    #[test]
    fn symbols_are_roots_and_bad_symbols_are_reported() {
        let clean = clean_image();
        let len = clean.len();
        let symbols = [("past_end".to_string(), len + 5)].into();
        let img = CodeImage::from_words(clean.words().to_vec(), symbols);
        let err = check_image(&img).unwrap_err();
        assert!(matches!(
            &err.violations[0],
            Violation::SymbolOutOfBounds { addr, .. } if *addr == len + 5
        ));
    }
}
