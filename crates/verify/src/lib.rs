//! # cobra-verify — static patch-safety verification for runtime binary rewrites
//!
//! COBRA's whole value proposition is rewriting a live binary under running
//! threads. This crate is the independent gate that turns "the optimizer is
//! probably right" into "every deployed rewrite was machine-checked": it
//! reconstructs a CFG over a [`CodeImage`], reads per-instruction def/use
//! sets off `cobra-isa`'s operand table, and applies rule-based
//! semantic-preservation checks to every plan before it is allowed to land.
//!
//! The rule set (see DESIGN.md §5e):
//!
//! * **noprefetch** may only replace `lfetch` slots with a same-slot-type
//!   `nop.m`; when a removed `lfetch` post-increments its base register, a
//!   flow-sensitive reaching-use walk proves no *binding* instruction reads
//!   that register — and, for a rotating register, nothing renames it —
//!   before it is redefined (`lfetch` is non-binding, so other prefetches
//!   reading the register are architecturally irrelevant).
//! * **prefetch.excl** may only flip the exclusive-ownership hint of an
//!   existing `lfetch` — base, post-increment, locality hint and predicate
//!   must all survive the rewrite verbatim.
//! * **combined** plans mix the two: every written site must be *either* a
//!   valid `noprefetch` removal or a valid `.excl` flip, judged per site.
//!   Any single-kind plan may also touch a subset of a loop's `lfetch`
//!   sites — unwritten sites simply stay as compiled.
//! * Every plan deploys a **trace clone**, which must land bundle-aligned at
//!   the next append point, be instruction-identical to the source loop
//!   modulo the allowed prefetch rewrites, keep its back edges inside the
//!   trace and exit to the instruction after the original back edge. The
//!   plan's writes into the existing image are the hoisted-burst rewrites
//!   and one head redirect into the clone; the original body stays intact
//!   so a regressed deployment can still be reverted.
//! * **Whole-image invariants** ([`check_image`]): every word reachable from
//!   the entry point or a symbol decodes, every static branch target is in
//!   bounds, and no reachable path falls off the end of the image.
//! * **Warm seeds** ([`check_seed`]): a decision replayed from a
//!   `cobra-store` snapshot must still name a decodable loop head that some
//!   backward branch in the live main text actually targets.
//!
//! The crate deliberately depends on `cobra-isa` only: the optimizer hands
//! it a neutral [`PlanCheck`] description so the verifier cannot inherit the
//! optimizer's assumptions about its own output.

use cobra_isa::insn::{Insn, Op};
use cobra_isa::{bundle_align, decode, CodeAddr, CodeImage, NOP_SLOT_M, ROT_GR_BASE};

pub mod cfg;
pub mod defuse;

pub use cfg::{check_image, reachable, successors};
/// Which rewrite a plan claims to perform.
pub use cobra_isa::RewriteKind;
pub use defuse::{defs, uses, Reg};

/// The trace-cache half of a plan, as handed to the verifier.
#[derive(Debug, Clone, Copy)]
pub struct TraceCheck<'a> {
    /// Where the optimizer claims the trace will land.
    pub expected_start: CodeAddr,
    /// The cloned (and rewritten) loop body plus one exit branch.
    pub insns: &'a [Insn],
}

/// A deployment plan described neutrally for verification, always checked
/// against the *pre-deployment* image.
#[derive(Debug, Clone, Copy)]
pub struct PlanCheck<'a> {
    pub kind: RewriteKind,
    /// First instruction of the claimed loop body.
    pub loop_head: CodeAddr,
    /// Address of the loop's back-edge branch.
    pub back_edge: CodeAddr,
    /// Start of the claimed loop region (head minus the entry window that
    /// holds the hoisted prefetch burst); every write must land in
    /// `[region_start, back_edge]`.
    pub region_start: CodeAddr,
    /// Words the plan writes into the existing image.
    pub writes: &'a [(CodeAddr, u64)],
    /// The rewritten clone, appended before the writes land.
    pub trace: TraceCheck<'a>,
}

/// One broken invariant. `Display` is the operator-facing one-liner that
/// telemetry and the CLI print.
#[derive(Debug, Clone, PartialEq)]
pub enum Violation {
    /// A reachable word does not decode.
    UndecodableWord { addr: CodeAddr },
    /// A static branch target lies outside the image.
    BranchTargetOutOfBounds { addr: CodeAddr, target: CodeAddr },
    /// A reachable non-terminal instruction at the end of the image.
    FallthroughPastEnd { addr: CodeAddr },
    /// A symbol points outside the image.
    SymbolOutOfBounds { name: String, addr: CodeAddr },
    /// A write lands outside the image.
    PatchSiteOutOfRange { addr: CodeAddr },
    /// A write lands outside the claimed loop region.
    PatchSiteOutsideLoopRegion {
        addr: CodeAddr,
        region_start: CodeAddr,
        back_edge: CodeAddr,
    },
    /// A written word does not decode.
    InvalidWrite { addr: CodeAddr },
    /// A rewrite targets a slot that does not hold an `lfetch`.
    NotALfetchSite { addr: CodeAddr },
    /// A `noprefetch` replacement is not an unpredicated `nop.m`.
    WrongSlotType { addr: CodeAddr },
    /// An `.excl` rewrite changed more than the exclusive hint.
    NotAHintFlip { addr: CodeAddr },
    /// A combined-plan rewrite is neither a `nop.m` removal nor a pure
    /// `.excl` hint flip.
    CombinedRewriteInvalid { addr: CodeAddr },
    /// Removing the `lfetch` at `site` kills a base-register update that a
    /// binding instruction at `user` still reads.
    BaseRegisterLive {
        site: CodeAddr,
        base: u8,
        user: CodeAddr,
    },
    /// The trace would not land where the plan claims.
    TraceMisaligned {
        expected: CodeAddr,
        actual: CodeAddr,
    },
    /// The clone's length disagrees with the claimed loop body.
    TraceLengthMismatch { expected: usize, actual: usize },
    /// A cloned instruction differs from the source beyond the allowed
    /// rewrites.
    TraceBodyMismatch { index: usize, addr: CodeAddr },
    /// A cloned branch still targets the original loop head: the back edge
    /// escaped the trace.
    TraceBackEdgeEscapes { index: usize, target: CodeAddr },
    /// The trace's exit branch is missing or mis-targeted.
    TraceExitInvalid,
    /// The head redirect is not an unpredicated branch into the trace.
    HeadRedirectInvalid { addr: CodeAddr },
    /// A write would clobber the original loop body, which must stay intact
    /// for revert.
    OriginalBodyClobbered { addr: CodeAddr },
    /// An OSR map misses (or doubly covers) a source body address: the
    /// mapping is not total, so some mid-loop thread would have no
    /// migration destination.
    OsrMapNotTotal { addr: CodeAddr },
    /// An OSR entry maps a source address to the wrong version offset.
    OsrMapWrongOffset {
        addr: CodeAddr,
        got: CodeAddr,
        want: CodeAddr,
    },
    /// An OSR entry's source or destination lies outside the two version
    /// bodies.
    OsrMapOutOfRange { addr: CodeAddr },
    /// A mapped instruction pair diverges beyond the allowed rewrites, so
    /// the two versions do not agree on architected state at that point.
    OsrBodyMismatch { addr: CodeAddr },
    /// A register the OSR map treats as scratch (a removed prefetch base)
    /// is still read by a binding instruction: migrating would transfer a
    /// clobbered value.
    OsrRegisterClobbered {
        site: CodeAddr,
        base: u8,
        user: CodeAddr,
    },
    /// A warm seed names a loop head outside the live main text.
    SeedHeadOutOfRange { head: CodeAddr, main_len: CodeAddr },
    /// A warm seed names a loop head whose word no longer decodes.
    SeedUndecodable { head: CodeAddr },
    /// No backward branch in the live main text targets the seeded head.
    SeedNotALoopHead { head: CodeAddr },
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Violation::UndecodableWord { addr } => {
                write!(f, "reachable word at {addr} does not decode")
            }
            Violation::BranchTargetOutOfBounds { addr, target } => {
                write!(f, "branch at {addr} targets {target}, outside the image")
            }
            Violation::FallthroughPastEnd { addr } => {
                write!(f, "execution can fall through past the image end at {addr}")
            }
            Violation::SymbolOutOfBounds { name, addr } => {
                write!(f, "symbol {name} points at {addr}, outside the image")
            }
            Violation::PatchSiteOutOfRange { addr } => {
                write!(f, "patch site {addr} is outside the image")
            }
            Violation::PatchSiteOutsideLoopRegion {
                addr,
                region_start,
                back_edge,
            } => write!(
                f,
                "patch site {addr} is outside the claimed loop region [{region_start},{back_edge}]"
            ),
            Violation::InvalidWrite { addr } => {
                write!(f, "written word at {addr} does not decode")
            }
            Violation::NotALfetchSite { addr } => {
                write!(f, "rewrite at {addr} targets a slot that is not an lfetch")
            }
            Violation::WrongSlotType { addr } => write!(
                f,
                "noprefetch replacement at {addr} is not an unpredicated nop.m"
            ),
            Violation::NotAHintFlip { addr } => write!(
                f,
                ".excl rewrite at {addr} changes more than the exclusive hint"
            ),
            Violation::CombinedRewriteInvalid { addr } => write!(
                f,
                "combined rewrite at {addr} is neither a nop.m removal nor a pure .excl flip"
            ),
            Violation::BaseRegisterLive { site, base, user } => write!(
                f,
                "removing lfetch at {site} kills the r{base} update still read at {user}"
            ),
            Violation::TraceMisaligned { expected, actual } => write!(
                f,
                "trace claims start {expected} but would land at {actual}"
            ),
            Violation::TraceLengthMismatch { expected, actual } => write!(
                f,
                "trace clone has {actual} instruction(s), loop body needs {expected}"
            ),
            Violation::TraceBodyMismatch { index, addr } => write!(
                f,
                "trace clone slot {index} diverges from source instruction at {addr}"
            ),
            Violation::TraceBackEdgeEscapes { index, target } => write!(
                f,
                "trace clone slot {index} branches to {target}, escaping the trace"
            ),
            Violation::TraceExitInvalid => {
                write!(f, "trace exit branch missing or mis-targeted")
            }
            Violation::HeadRedirectInvalid { addr } => write!(
                f,
                "head redirect at {addr} is not an unpredicated branch into the trace"
            ),
            Violation::OriginalBodyClobbered { addr } => write!(
                f,
                "write at {addr} clobbers the original loop body needed for revert"
            ),
            Violation::OsrMapNotTotal { addr } => {
                write!(f, "OSR map does not cover body address {addr} exactly once")
            }
            Violation::OsrMapWrongOffset { addr, got, want } => write!(
                f,
                "OSR map sends {addr} to {got}, version layout puts it at {want}"
            ),
            Violation::OsrMapOutOfRange { addr } => {
                write!(f, "OSR entry at {addr} leaves the version bodies")
            }
            Violation::OsrBodyMismatch { addr } => write!(
                f,
                "versions diverge beyond the allowed rewrites at mapped address {addr}"
            ),
            Violation::OsrRegisterClobbered { site, base, user } => write!(
                f,
                "OSR scratch register r{base} from removed lfetch at {site} is still read at {user}"
            ),
            Violation::SeedHeadOutOfRange { head, main_len } => write!(
                f,
                "seeded loop head {head} is outside the live main text (len {main_len})"
            ),
            Violation::SeedUndecodable { head } => {
                write!(f, "seeded loop head {head} no longer decodes")
            }
            Violation::SeedNotALoopHead { head } => write!(
                f,
                "no backward branch in the live text targets seeded head {head}"
            ),
        }
    }
}

/// Verification failure: one or more broken invariants.
#[derive(Debug, Clone, PartialEq)]
pub struct VerifyError {
    pub violations: Vec<Violation>,
}

impl VerifyError {
    fn from_violations(violations: Vec<Violation>) -> Result<(), VerifyError> {
        if violations.is_empty() {
            Ok(())
        } else {
            Err(VerifyError { violations })
        }
    }
}

impl std::fmt::Display for VerifyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} violation(s):", self.violations.len())?;
        for v in &self.violations {
            write!(f, " [{v}]")?;
        }
        Ok(())
    }
}

impl std::error::Error for VerifyError {}

/// The rewrite the rules allow at an `lfetch` site, mirroring what the
/// optimizer is supposed to emit.
fn allowed_rewrite(old: &Insn, kind: RewriteKind) -> Option<Insn> {
    match (kind, old.op) {
        (RewriteKind::NoPrefetch, Op::Lfetch { .. }) => Some(NOP_SLOT_M),
        (
            RewriteKind::ExclHint,
            Op::Lfetch {
                base,
                post_inc,
                hint,
                ..
            },
        ) => Some(Insn::pred(
            old.qp,
            Op::Lfetch {
                base,
                post_inc,
                hint,
                excl: true,
            },
        )),
        _ => None,
    }
}

/// Classify `old` → `new` under `kind`'s per-site rules. `Some(true)` is a
/// valid `lfetch` removal (`nop.m`), `Some(false)` a valid `.excl` hint
/// flip; `None` means the pair matches no rule of `kind` (or `old` is not
/// an `lfetch` at all).
fn match_rewrite(old: &Insn, new: &Insn, kind: RewriteKind) -> Option<bool> {
    if !old.is_lfetch() {
        return None;
    }
    let nop_ok = matches!(kind, RewriteKind::NoPrefetch | RewriteKind::Combined);
    let excl_ok = matches!(kind, RewriteKind::ExclHint | RewriteKind::Combined);
    if nop_ok && allowed_rewrite(old, RewriteKind::NoPrefetch).is_some_and(|r| r == *new) {
        return Some(true);
    }
    if excl_ok && allowed_rewrite(old, RewriteKind::ExclHint).is_some_and(|r| r == *new) {
        return Some(false);
    }
    None
}

/// Check one `lfetch`-site rewrite (`old` → `new`) against the rules for
/// `kind`, pushing violations for `addr`. Returns whether the rewrite
/// removes the `lfetch` (feeds the reaching-use removed set).
fn check_site_rewrite(
    addr: CodeAddr,
    old: &Insn,
    new: &Insn,
    kind: RewriteKind,
    out: &mut Vec<Violation>,
) -> bool {
    if !old.is_lfetch() {
        out.push(Violation::NotALfetchSite { addr });
        return false;
    }
    match match_rewrite(old, new, kind) {
        Some(is_removal) => is_removal,
        None => {
            out.push(match kind {
                RewriteKind::NoPrefetch => Violation::WrongSlotType { addr },
                RewriteKind::ExclHint => Violation::NotAHintFlip { addr },
                RewriteKind::Combined => Violation::CombinedRewriteInvalid { addr },
            });
            false
        }
    }
}

/// Forward reaching-use walk for a removed post-incrementing `lfetch`: from
/// the successors of `site`, does any *binding* (non-`lfetch`) instruction
/// read `Gr(base)` — or, for a rotating base, any instruction rename it —
/// before an unpredicated redefinition? Other removed sites
/// are transparent (they will be `nop.m` after the patch); surviving
/// `lfetch`es neither use (non-binding) nor kill (their post-increment
/// *reads* the base, propagating the perturbation).
fn base_use_after_removal(
    image: &CodeImage,
    removed: &std::collections::HashSet<CodeAddr>,
    site: CodeAddr,
    base: u8,
) -> Option<CodeAddr> {
    // This walk runs under the deployment gate on every plan, so it must
    // not allocate per visited instruction: visited is a bitmap, def/use
    // sets are the operand table's fixed lists, successors come back in a
    // fixed pair.
    let mut visited = vec![false; image.len() as usize];
    let mut stack: Vec<CodeAddr> = Vec::with_capacity(16);
    let push_succs = |insn: &Insn, addr: CodeAddr, stack: &mut Vec<CodeAddr>| {
        let (pair, n) = cfg::successor_pair(addr, insn);
        for &succ in &pair[..n] {
            if succ < image.len() {
                stack.push(succ);
            }
        }
    };
    match image.insn(site) {
        Ok(insn) => push_succs(&insn, site, &mut stack),
        Err(_) => return None,
    }
    while let Some(addr) = stack.pop() {
        if std::mem::replace(&mut visited[addr as usize], true) {
            continue;
        }
        let Ok(insn) = image.insn(addr) else {
            continue; // undecodable paths are check_image's problem
        };
        // Register numbers are virtual: past a `br.ctop` / `br.wtop` /
        // `clrrrb` a perturbed rotating base goes by another name (written
        // as r40, read as r41), so the comparison below would miss its
        // readers. Reaching one with the value still live counts as a read.
        if base >= ROT_GR_BASE
            && matches!(insn.op, Op::BrCtop { .. } | Op::BrWtop { .. } | Op::Clrrrb)
        {
            return Some(addr);
        }
        if !removed.contains(&addr) {
            let ops = insn.op.operands();
            let reads_base = ops.uses().contains(&Reg::Gr(base));
            if reads_base && !insn.is_lfetch() {
                return Some(addr);
            }
            // An unpredicated definition that does not read the base kills
            // the perturbed value on this path.
            if insn.qp == 0 && !reads_base && ops.defs().contains(&Reg::Gr(base)) {
                continue;
            }
        }
        push_succs(&insn, addr, &mut stack);
    }
    None
}

/// Verify one deployment plan against the pre-deployment image.
pub fn check_plan(image: &CodeImage, plan: &PlanCheck<'_>) -> Result<(), VerifyError> {
    let mut v: Vec<Violation> = Vec::new();

    // Whole-plan write invariants: in the image, in the claimed loop
    // region, and decodable.
    for &(addr, word) in plan.writes {
        if addr >= image.len() {
            v.push(Violation::PatchSiteOutOfRange { addr });
            continue;
        }
        if addr < plan.region_start || addr > plan.back_edge {
            v.push(Violation::PatchSiteOutsideLoopRegion {
                addr,
                region_start: plan.region_start,
                back_edge: plan.back_edge,
            });
        }
        if decode(word).is_err() {
            v.push(Violation::InvalidWrite { addr });
        }
    }

    // Sites whose lfetch the plan removes (needed for the reaching-use
    // rule): filled in by the clone and write checks below.
    let mut removed: std::collections::HashSet<CodeAddr> = std::collections::HashSet::new();

    // The clone must land exactly where both sides will compute it.
    let actual = bundle_align(image.len());
    if plan.trace.expected_start != actual {
        v.push(Violation::TraceMisaligned {
            expected: plan.trace.expected_start,
            actual,
        });
    }
    check_trace_clone(image, plan, &mut v, &mut removed);
    check_trace_writes(image, plan, &mut v, &mut removed);

    // Flow-sensitive reaching-use check for every removed post-incrementing
    // lfetch. The walk runs over the *original* CFG, which over-approximates
    // the patched control flow (the trace is a copy of the body).
    for &site in &removed {
        let Ok(insn) = image.insn(site) else { continue };
        if let Op::Lfetch { base, post_inc, .. } = insn.op {
            if post_inc != 0 {
                if let Some(user) = base_use_after_removal(image, &removed, site, base) {
                    v.push(Violation::BaseRegisterLive { site, base, user });
                }
            }
        }
    }

    VerifyError::from_violations(v)
}

/// Compare the trace clone instruction-by-instruction with the source loop.
fn check_trace_clone(
    image: &CodeImage,
    plan: &PlanCheck<'_>,
    v: &mut Vec<Violation>,
    removed: &mut std::collections::HashSet<CodeAddr>,
) {
    let trace = &plan.trace;
    if plan.back_edge < plan.loop_head || plan.back_edge >= image.len() {
        v.push(Violation::PatchSiteOutOfRange {
            addr: plan.back_edge,
        });
        return;
    }
    let body_len = (plan.back_edge - plan.loop_head + 1) as usize;
    // Body plus exactly one exit branch.
    if trace.insns.len() != body_len + 1 {
        v.push(Violation::TraceLengthMismatch {
            expected: body_len + 1,
            actual: trace.insns.len(),
        });
        return;
    }
    let trace_end = trace.expected_start + trace.insns.len() as CodeAddr;
    for (i, cloned) in trace.insns[..body_len].iter().enumerate() {
        let addr = plan.loop_head + i as CodeAddr;
        let orig = match image.insn(addr) {
            Ok(orig) => orig,
            Err(_) => {
                v.push(Violation::UndecodableWord { addr });
                continue;
            }
        };
        let as_rewrite = match_rewrite(&orig, cloned, plan.kind);
        let as_retarget = if orig.op.branch_target() == Some(plan.loop_head) {
            orig.op
                .with_branch_target(trace.expected_start)
                .map(|op| Insn::pred(orig.qp, op))
        } else {
            None
        };
        if *cloned == orig {
            // identical — fine
        } else if let Some(is_removal) = as_rewrite {
            if is_removal {
                removed.insert(addr);
            }
        } else if as_retarget.is_some_and(|r| r == *cloned) {
            // back edge retargeted into the trace — fine
        } else {
            v.push(Violation::TraceBodyMismatch { index: i, addr });
        }
        // No cloned branch may leave the trace for the original head (a
        // patched head would bounce it straight back in, but the redirect
        // may already have been reverted) or point outside the image.
        if let Some(target) = cloned.op.branch_target() {
            if target == plan.loop_head {
                v.push(Violation::TraceBackEdgeEscapes { index: i, target });
            } else if target >= image.len() && !(trace.expected_start..trace_end).contains(&target)
            {
                v.push(Violation::BranchTargetOutOfBounds { addr, target });
            }
        }
    }
    // The exit: an unpredicated branch to the instruction after the
    // original back edge.
    let exit = &trace.insns[body_len];
    let exit_ok = exit.qp == 0
        && exit.op
            == (Op::BrCond {
                target: plan.back_edge + 1,
            })
        && plan.back_edge + 1 < image.len();
    if !exit_ok {
        v.push(Violation::TraceExitInvalid);
    }
}

/// Check a plan's writes into the existing image: burst-site rewrites
/// before the head, one head redirect, and nothing inside the body.
fn check_trace_writes(
    image: &CodeImage,
    plan: &PlanCheck<'_>,
    v: &mut Vec<Violation>,
    removed: &mut std::collections::HashSet<CodeAddr>,
) {
    let mut redirects = 0usize;
    for &(addr, word) in plan.writes {
        if addr >= image.len() {
            continue; // already reported
        }
        let Ok(new) = decode(word) else { continue };
        if addr == plan.loop_head {
            redirects += 1;
            let ok = new.qp == 0
                && new.op
                    == (Op::BrCond {
                        target: plan.trace.expected_start,
                    });
            if !ok {
                v.push(Violation::HeadRedirectInvalid { addr });
            }
        } else if addr > plan.loop_head && addr <= plan.back_edge {
            // The body must survive untouched for revert.
            v.push(Violation::OriginalBodyClobbered { addr });
        } else {
            // Entry-window burst rewrite.
            let Ok(old) = image.insn(addr) else {
                v.push(Violation::NotALfetchSite { addr });
                continue;
            };
            if check_site_rewrite(addr, &old, &new, plan.kind, v) {
                removed.insert(addr);
            }
        }
    }
    if redirects != 1 {
        v.push(Violation::HeadRedirectInvalid {
            addr: plan.loop_head,
        });
    }
}

/// Verify a warm-start seed against the live image: the head must be a
/// decodable main-text address that some backward branch still targets.
pub fn check_seed(image: &CodeImage, head: CodeAddr) -> Result<(), VerifyError> {
    let mut v = Vec::new();
    if head >= image.main_len() {
        v.push(Violation::SeedHeadOutOfRange {
            head,
            main_len: image.main_len(),
        });
        return VerifyError::from_violations(v);
    }
    if image.insn(head).is_err() {
        v.push(Violation::SeedUndecodable { head });
    }
    let has_back_edge = (head..image.main_len()).any(|addr| {
        image
            .insn(addr)
            .is_ok_and(|insn| insn.op.branch_target() == Some(head))
    });
    if !has_back_edge {
        v.push(Violation::SeedNotALoopHead { head });
    }
    VerifyError::from_violations(v)
}

/// Verify an on-stack replacement map against the pre-deployment image and
/// the version it migrates into, proving it safe to arm:
///
/// * **total** — the entries cover every address of the source body
///   `[loop_head, back_edge]` exactly once, each at the version offset the
///   trace layout fixes (`version_start + (addr - loop_head)`), so any
///   mid-loop control transfer has a defined destination;
/// * **type-correct** — at every mapped pair the two versions hold the same
///   instruction modulo the allowed rewrites (identical, a valid removal or
///   hint flip under `kind`, or the back edge retargeted into the version),
///   so all architected state transfers verbatim;
/// * **obligations discharged** — every scratch register the map's
///   [`cobra_osr::Obligations`] allow to diverge (removed post-incrementing
///   prefetch bases) is proven dead by the same flow-sensitive reaching-use
///   walk that gates the deployment itself.
///
/// `version` is the deployed body in mapped order (for trace-cache clones,
/// the `TracePlan` instructions; trailing instructions past the body, such
/// as the trace exit branch, are ignored here — `check_plan` already pins
/// them). Maps are checked in their *forward* orientation; the reverse
/// migration armed on revert is `map.reversed()`, sound by the same
/// pairwise argument (the correspondence and obligations are symmetric).
pub fn check_osr_map(
    image: &CodeImage,
    map: &cobra_osr::OsrMap,
    kind: RewriteKind,
    version: &[Insn],
) -> Result<(), VerifyError> {
    let mut v: Vec<Violation> = Vec::new();
    if map.back_edge < map.loop_head || map.back_edge >= image.len() {
        v.push(Violation::OsrMapOutOfRange {
            addr: map.back_edge,
        });
        return VerifyError::from_violations(v);
    }
    let body_len = map.body_len();
    if version.len() < body_len {
        v.push(Violation::OsrMapOutOfRange {
            addr: map.version_start + version.len() as CodeAddr,
        });
        return VerifyError::from_violations(v);
    }

    // Totality: each source address covered exactly once, at the layout
    // offset. Entries outside the body are their own violation.
    let mut cover = vec![0u32; body_len];
    for e in &map.entries {
        if e.from < map.loop_head || e.from > map.back_edge {
            v.push(Violation::OsrMapOutOfRange { addr: e.from });
            continue;
        }
        cover[(e.from - map.loop_head) as usize] += 1;
        let want = map.version_start + (e.from - map.loop_head);
        if e.to != want {
            v.push(Violation::OsrMapWrongOffset {
                addr: e.from,
                got: e.to,
                want,
            });
        }
    }
    for (i, &n) in cover.iter().enumerate() {
        if n != 1 {
            v.push(Violation::OsrMapNotTotal {
                addr: map.loop_head + i as CodeAddr,
            });
        }
    }

    // Type-correctness: the versions must agree modulo the allowed rewrites
    // at every mapped pair, collecting removal sites for the obligation
    // check below.
    let mut removed: std::collections::HashSet<CodeAddr> = std::collections::HashSet::new();
    let mut original: Vec<Insn> = Vec::with_capacity(body_len);
    for (i, ver) in version.iter().enumerate().take(body_len) {
        let addr = map.loop_head + i as CodeAddr;
        let orig = match image.insn(addr) {
            Ok(orig) => orig,
            Err(_) => {
                v.push(Violation::UndecodableWord { addr });
                continue;
            }
        };
        original.push(orig);
        let as_retarget = if orig.op.branch_target() == Some(map.loop_head) {
            orig.op
                .with_branch_target(map.version_start)
                .map(|op| Insn::pred(orig.qp, op))
        } else {
            None
        };
        let matches = *ver == orig
            || as_retarget.is_some_and(|r| r == *ver)
            || match match_rewrite(&orig, ver, kind) {
                Some(is_removal) => {
                    if is_removal {
                        removed.insert(addr);
                    }
                    true
                }
                None => false,
            };
        if !matches {
            v.push(Violation::OsrBodyMismatch { addr });
        }
    }

    // Obligations: the syntactic scratch set must match the removal sites
    // found above, and each scratch register must be dead past its removal
    // site (no binding read before an unpredicated redefinition).
    let ob = cobra_osr::obligations(&original, version);
    for &site in &removed {
        let Ok(insn) = image.insn(site) else { continue };
        if let Op::Lfetch { base, post_inc, .. } = insn.op {
            if post_inc != 0 {
                debug_assert!(ob.scratch_grs.contains(&base));
                if let Some(user) = base_use_after_removal(image, &removed, site, base) {
                    v.push(Violation::OsrRegisterClobbered { site, base, user });
                }
            }
        }
    }

    VerifyError::from_violations(v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cobra_isa::insn::NOP_SLOT_I;
    use cobra_isa::{encode, Assembler, LfetchHint};

    /// The minicc shape: hoisted burst (shared scratch base), loop body
    /// with an in-loop prefetch, back edge, epilogue that *redefines* the
    /// scratch register before reading it.
    fn loop_image() -> (CodeImage, CodeAddr, CodeAddr) {
        let mut a = Assembler::new();
        a.mov(31, 3); // scratch base ← pointer
        a.lfetch_nt1(0, 31, 128); // burst line 0 (post-inc shared base)
        a.lfetch_nt1(0, 31, 128); // burst line 1
        a.movi(31, 7); // scratch redefined (kills the perturbation)
        a.mov_to_ec(31); // ... then read by a binding instruction
        let top = a.new_label();
        a.bind(top);
        let head = a.here();
        a.ldfd(16, 32, 2, 8);
        a.lfetch_nt1(16, 27, 8);
        a.stfd(23, 46, 4, 8);
        let back = a.br_ctop(top);
        a.hlt();
        (a.finish(), head, back)
    }

    fn lfetch_sites(image: &CodeImage) -> Vec<CodeAddr> {
        (0..image.len())
            .filter(|&a| image.insn(a).is_ok_and(|i| i.is_lfetch()))
            .collect()
    }

    /// A plan for the loop `[head, back]` in the optimizer's layout:
    /// `rewrite` gives each `lfetch` site (burst or body) its new
    /// instruction, or `None` to keep it. Burst sites become writes, body
    /// sites are rewritten in the clone, and the head is redirected into it.
    struct Parts {
        head: CodeAddr,
        back: CodeAddr,
        start: CodeAddr,
        insns: Vec<Insn>,
        writes: Vec<(CodeAddr, u64)>,
    }

    impl Parts {
        fn with(
            image: &CodeImage,
            head: CodeAddr,
            back: CodeAddr,
            rewrite: impl Fn(CodeAddr, &Insn) -> Option<Insn>,
        ) -> Parts {
            let start = bundle_align(image.len());
            let mut insns = Vec::new();
            for addr in head..=back {
                let mut insn = image.insn(addr).unwrap();
                if insn.is_lfetch() {
                    insn = rewrite(addr, &insn).unwrap_or(insn);
                }
                if insn.op.branch_target() == Some(head) {
                    insn.op = insn.op.with_branch_target(start).unwrap();
                }
                insns.push(insn);
            }
            insns.push(Insn::new(Op::BrCond { target: back + 1 }));
            let mut writes: Vec<(CodeAddr, u64)> = lfetch_sites(image)
                .into_iter()
                .filter(|&a| a < head)
                .filter_map(|a| Some((a, encode(&rewrite(a, &image.insn(a).unwrap())?))))
                .collect();
            writes.push((head, encode(&Insn::new(Op::BrCond { target: start }))));
            Parts {
                head,
                back,
                start,
                insns,
                writes,
            }
        }

        /// Every site rewritten the one way `kind` allows.
        fn uniform(image: &CodeImage, head: CodeAddr, back: CodeAddr, kind: RewriteKind) -> Parts {
            Parts::with(image, head, back, |_, old| allowed_rewrite(old, kind))
        }

        fn check(&self, image: &CodeImage, kind: RewriteKind) -> Result<(), VerifyError> {
            check_plan(
                image,
                &PlanCheck {
                    kind,
                    loop_head: self.head,
                    back_edge: self.back,
                    region_start: self.head.saturating_sub(24),
                    writes: &self.writes,
                    trace: TraceCheck {
                        expected_start: self.start,
                        insns: &self.insns,
                    },
                },
            )
        }

        /// Index in `insns` of the clone's first `lfetch` slot.
        fn body_site(&self, image: &CodeImage) -> usize {
            (self.head..=self.back)
                .position(|a| image.insn(a).unwrap().is_lfetch())
                .unwrap()
        }
    }

    fn has(err: &VerifyError, want: impl Fn(&Violation) -> bool) -> bool {
        err.violations.iter().any(want)
    }

    /// Both rewrite kinds, shaped as the optimizer shapes them. The burst
    /// shares a scratch base that the epilogue redefines before its binding
    /// read, so removing the burst passes: the reaching-use walk is
    /// flow-sensitive, not a blanket register scan.
    #[test]
    fn accepts_real_trace_plan() {
        let (image, head, back) = loop_image();
        for kind in [RewriteKind::NoPrefetch, RewriteKind::ExclHint] {
            Parts::uniform(&image, head, back, kind)
                .check(&image, kind)
                .unwrap_or_else(|e| panic!("{kind:?}: the optimizer's own shape must verify: {e}"));
        }
    }

    /// An I-slot nop where only `nop.m` may go: in a burst write, and in
    /// the clone.
    #[test]
    fn rejects_wrong_slot_type() {
        let (image, head, back) = loop_image();
        let kind = RewriteKind::NoPrefetch;
        let mut p = Parts::uniform(&image, head, back, kind);
        p.writes[0].1 = encode(&NOP_SLOT_I);
        let err = p.check(&image, kind).unwrap_err();
        assert!(has(&err, |v| matches!(v, Violation::WrongSlotType { .. })));

        let mut p = Parts::uniform(&image, head, back, kind);
        let slot = p.body_site(&image);
        p.insns[slot] = NOP_SLOT_I;
        let err = p.check(&image, kind).unwrap_err();
        assert!(has(&err, |v| matches!(
            v,
            Violation::TraceBodyMismatch { .. }
        )));
    }

    #[test]
    fn rejects_clobbered_non_prefetch() {
        let (image, head, back) = loop_image();
        let mut p = Parts::uniform(&image, head, back, RewriteKind::NoPrefetch);
        // Address 0 holds the `mov` that loads the burst's base.
        p.writes.push((0, encode(&NOP_SLOT_M)));
        let err = p.check(&image, RewriteKind::NoPrefetch).unwrap_err();
        assert!(has(&err, |v| matches!(
            v,
            Violation::NotALfetchSite { addr: 0 }
        )));
    }

    #[test]
    fn rejects_write_outside_region() {
        let (image, head, back) = loop_image();
        let mut p = Parts::uniform(&image, head, back, RewriteKind::NoPrefetch);
        p.writes.push((back + 1, encode(&NOP_SLOT_M))); // the hlt after the loop
        let err = p.check(&image, RewriteKind::NoPrefetch).unwrap_err();
        assert!(has(&err, |v| matches!(
            v,
            Violation::PatchSiteOutsideLoopRegion { .. }
        )));
    }

    #[test]
    fn rejects_excl_that_changes_base() {
        let (image, head, back) = loop_image();
        let mut p = Parts::uniform(&image, head, back, RewriteKind::ExclHint);
        p.writes[0].1 = encode(&Insn::new(Op::Lfetch {
            base: 9, // not the original base
            post_inc: 128,
            hint: LfetchHint::Nt1,
            excl: true,
        }));
        let err = p.check(&image, RewriteKind::ExclHint).unwrap_err();
        assert!(has(&err, |v| matches!(v, Violation::NotAHintFlip { .. })));
    }

    /// Removing a post-incrementing lfetch whose base feeds a binding read
    /// (no redefinition in between) must be rejected, under either kind
    /// that removes.
    #[test]
    fn rejects_live_base_register() {
        let mut a = Assembler::new();
        a.lfetch_nt1(0, 20, 64); // r20 += 64 — removed by the plan
        a.mov_to_lc(20); // binding read of r20, no redefinition
        let top = a.new_label();
        a.bind(top);
        let head = a.here();
        a.ldfd(16, 32, 2, 8);
        let back = a.br_cloop(top);
        a.hlt();
        let image = a.finish();
        for kind in [RewriteKind::NoPrefetch, RewriteKind::Combined] {
            let p = Parts::with(&image, head, back, |_, _| Some(NOP_SLOT_M));
            let err = p.check(&image, kind).unwrap_err();
            assert!(
                has(&err, |v| matches!(
                    v,
                    Violation::BaseRegisterLive { base: 20, .. }
                )),
                "{kind:?}: {err}"
            );
        }
    }

    /// A software-pipelined loop reads last iteration's `r40` as `r41`: the
    /// lfetch [r40],8 the clone removes has no reader *named* r40, yet its
    /// update is live across the rotating back edge. Redefined before the
    /// branch, or on a static base, the same removal is fine.
    #[test]
    fn rotating_base_is_live_across_a_rotating_branch() {
        let build = |base: u8, kill: bool| {
            let mut a = Assembler::new();
            let top = a.new_label();
            a.bind(top);
            let head = a.here();
            a.lfetch_nt1(16, base, 8);
            a.ldfd(17, 33, base + 1, 0);
            if kill {
                a.movi(base, 0);
            }
            let back = a.br_ctop(top);
            a.hlt();
            (a.finish(), head, back)
        };
        let check = |(image, head, back): (CodeImage, CodeAddr, CodeAddr)| {
            Parts::uniform(&image, head, back, RewriteKind::NoPrefetch)
                .check(&image, RewriteKind::NoPrefetch)
        };
        let err = check(build(40, false)).unwrap_err();
        assert_eq!(
            err.violations,
            [Violation::BaseRegisterLive {
                site: 0,
                base: 40,
                user: 2
            }]
        );
        check(build(40, true)).expect("redefined before the rotation");
        check(build(27, false)).expect("static registers keep their names");
    }

    #[test]
    fn rejects_misaligned_trace() {
        let (image, head, back) = loop_image();
        let mut p = Parts::uniform(&image, head, back, RewriteKind::NoPrefetch);
        p.start += 1;
        let err = p.check(&image, RewriteKind::NoPrefetch).unwrap_err();
        assert!(has(&err, |v| matches!(
            v,
            Violation::TraceMisaligned { .. }
        )));
    }

    #[test]
    fn rejects_escaped_back_edge() {
        let (image, head, back) = loop_image();
        let mut p = Parts::uniform(&image, head, back, RewriteKind::NoPrefetch);
        let idx = (back - head) as usize;
        p.insns[idx].op = p.insns[idx].op.with_branch_target(head).unwrap();
        let err = p.check(&image, RewriteKind::NoPrefetch).unwrap_err();
        assert!(has(&err, |v| matches!(
            v,
            Violation::TraceBackEdgeEscapes { .. }
        )));
    }

    #[test]
    fn rejects_clobbered_body_and_truncated_trace() {
        let (image, head, back) = loop_image();
        let mut p = Parts::uniform(&image, head, back, RewriteKind::NoPrefetch);
        p.writes.push((head + 1, encode(&NOP_SLOT_M)));
        let err = p.check(&image, RewriteKind::NoPrefetch).unwrap_err();
        assert!(has(&err, |v| matches!(
            v,
            Violation::OriginalBodyClobbered { .. }
        )));

        let mut p = Parts::uniform(&image, head, back, RewriteKind::NoPrefetch);
        p.insns.remove(1);
        let err = p.check(&image, RewriteKind::NoPrefetch).unwrap_err();
        assert!(has(&err, |v| matches!(
            v,
            Violation::TraceLengthMismatch { .. }
        )));
    }

    /// The head word must be one unpredicated branch into the clone, and
    /// there must be exactly one such write.
    #[test]
    fn rejects_missing_or_misdirected_head_redirect() {
        let (image, head, back) = loop_image();
        let mut p = Parts::uniform(&image, head, back, RewriteKind::NoPrefetch);
        p.writes.pop();
        let err = p.check(&image, RewriteKind::NoPrefetch).unwrap_err();
        assert_eq!(
            err.violations,
            [Violation::HeadRedirectInvalid { addr: head }]
        );

        let mut p = Parts::uniform(&image, head, back, RewriteKind::NoPrefetch);
        let redirect = p.writes.last_mut().unwrap();
        redirect.1 = encode(&Insn::new(Op::BrCond { target: back + 1 }));
        let err = p.check(&image, RewriteKind::NoPrefetch).unwrap_err();
        assert!(has(&err, |v| matches!(
            v,
            Violation::HeadRedirectInvalid { .. }
        )));
    }

    #[test]
    fn seed_checks_head_range_decode_and_back_edge() {
        let (image, head, _back) = loop_image();
        check_seed(&image, head).expect("real head verifies");
        let err = check_seed(&image, image.main_len() + 7).unwrap_err();
        assert!(matches!(
            err.violations[0],
            Violation::SeedHeadOutOfRange { .. }
        ));
        // An address nothing branches back to is not a loop head.
        let err = check_seed(&image, 0).unwrap_err();
        assert!(matches!(
            err.violations[0],
            Violation::SeedNotALoopHead { .. }
        ));
    }

    /// A single-kind plan touching only a subset of the loop's lfetch
    /// sites is first-class: unwritten sites simply stay as compiled.
    #[test]
    fn accepts_partial_subset_single_kind() {
        let (image, head, back) = loop_image();
        let sites = lfetch_sites(&image);
        assert!(sites.len() >= 3, "test image needs a burst and a body site");
        let p = Parts::with(&image, head, back, |a, _| {
            (a == sites[0]).then_some(NOP_SLOT_M)
        });
        assert_eq!(p.writes.len(), 2, "one burst write and the redirect");
        p.check(&image, RewriteKind::NoPrefetch)
            .expect("subset noprefetch must verify");
    }

    /// Combined plans judge each site on its own: a removal and a hint flip
    /// in either place, burst or clone, with a site left as compiled.
    #[test]
    fn accepts_combined_mixed_plans() {
        let (image, head, back) = loop_image();
        let sites = lfetch_sites(&image);
        let flip = |old: &Insn| allowed_rewrite(old, RewriteKind::ExclHint);
        // Burst site 0 removed, body site 2 flipped, burst site 1 kept.
        let p = Parts::with(&image, head, back, |a, old| {
            if a == sites[0] {
                Some(NOP_SLOT_M)
            } else if a == sites[2] {
                flip(old)
            } else {
                None
            }
        });
        p.check(&image, RewriteKind::Combined)
            .expect("mixed per-site combined plan must verify");
        // Body site removed, burst sites flipped.
        let p = Parts::with(&image, head, back, |a, old| {
            if a >= head {
                Some(NOP_SLOT_M)
            } else {
                flip(old)
            }
        });
        p.check(&image, RewriteKind::Combined)
            .expect("mixed trace-cache combined plan must verify");
    }

    #[test]
    fn rejects_combined_non_rewrite() {
        let (image, head, back) = loop_image();
        let mut p = Parts::uniform(&image, head, back, RewriteKind::NoPrefetch);
        // Neither a nop.m nor a pure hint flip: base changed *and* excl set.
        p.writes[0].1 = encode(&Insn::new(Op::Lfetch {
            base: 9,
            post_inc: 128,
            hint: LfetchHint::Nt1,
            excl: true,
        }));
        let err = p.check(&image, RewriteKind::Combined).unwrap_err();
        assert!(
            has(&err, |v| matches!(
                v,
                Violation::CombinedRewriteInvalid { .. }
            )),
            "{err}"
        );
    }

    #[test]
    fn error_display_is_one_line() {
        let err = VerifyError {
            violations: vec![
                Violation::TraceExitInvalid,
                Violation::WrongSlotType { addr: 5 },
            ],
        };
        let text = err.to_string();
        assert!(text.starts_with("2 violation(s):"), "{text}");
        assert!(!text.contains('\n'));
    }

    /// Map + clone body exactly as the optimizer lays them out.
    fn osr_parts(
        image: &CodeImage,
        head: CodeAddr,
        back: CodeAddr,
        kind: RewriteKind,
    ) -> (cobra_osr::OsrMap, Vec<Insn>) {
        let p = Parts::uniform(image, head, back, kind);
        (
            cobra_osr::OsrMap::for_trace(1, head, back, p.start),
            p.insns,
        )
    }

    #[test]
    fn accepts_layout_true_osr_map() {
        for kind in [RewriteKind::NoPrefetch, RewriteKind::ExclHint] {
            let (image, head, back) = loop_image();
            let (map, insns) = osr_parts(&image, head, back, kind);
            check_osr_map(&image, &map, kind, &insns).unwrap();
            // A combined plan accepts either per-site rewrite.
            check_osr_map(&image, &map, RewriteKind::Combined, &insns).unwrap();
        }
    }

    #[test]
    fn rejects_non_total_map() {
        let (image, head, back) = loop_image();
        let (mut map, insns) = osr_parts(&image, head, back, RewriteKind::NoPrefetch);
        map.entries.remove(1);
        let err = check_osr_map(&image, &map, RewriteKind::NoPrefetch, &insns).unwrap_err();
        assert!(
            err.violations
                .iter()
                .any(|v| matches!(v, Violation::OsrMapNotTotal { .. })),
            "{err}"
        );
    }

    #[test]
    fn rejects_wrong_offset_and_duplicate_entries() {
        let (image, head, back) = loop_image();
        let (mut map, insns) = osr_parts(&image, head, back, RewriteKind::NoPrefetch);
        map.entries[2].to += 1;
        let err = check_osr_map(&image, &map, RewriteKind::NoPrefetch, &insns).unwrap_err();
        assert!(
            err.violations
                .iter()
                .any(|v| matches!(v, Violation::OsrMapWrongOffset { .. })),
            "{err}"
        );

        let (mut map, insns) = osr_parts(&image, head, back, RewriteKind::NoPrefetch);
        let dup = map.entries[0];
        map.entries[1] = dup; // address 0 covered twice, address 1 never
        let err = check_osr_map(&image, &map, RewriteKind::NoPrefetch, &insns).unwrap_err();
        assert!(
            err.violations
                .iter()
                .any(|v| matches!(v, Violation::OsrMapNotTotal { .. })),
            "{err}"
        );
    }

    #[test]
    fn rejects_entries_leaving_the_bodies() {
        let (image, head, back) = loop_image();
        let (mut map, insns) = osr_parts(&image, head, back, RewriteKind::NoPrefetch);
        map.entries[0].from = head.wrapping_sub(1);
        let err = check_osr_map(&image, &map, RewriteKind::NoPrefetch, &insns).unwrap_err();
        assert!(
            err.violations
                .iter()
                .any(|v| matches!(v, Violation::OsrMapOutOfRange { .. })),
            "{err}"
        );

        // A version slice shorter than the body cannot back the map.
        let (map, insns) = osr_parts(&image, head, back, RewriteKind::NoPrefetch);
        let err = check_osr_map(&image, &map, RewriteKind::NoPrefetch, &insns[..2]).unwrap_err();
        assert!(
            err.violations
                .iter()
                .any(|v| matches!(v, Violation::OsrMapOutOfRange { .. })),
            "{err}"
        );
    }

    #[test]
    fn rejects_diverging_version_body() {
        let (image, head, back) = loop_image();
        let (map, mut insns) = osr_parts(&image, head, back, RewriteKind::NoPrefetch);
        insns[0] = NOP_SLOT_I; // not this slot's instruction, not a rewrite
        let err = check_osr_map(&image, &map, RewriteKind::NoPrefetch, &insns).unwrap_err();
        assert!(
            err.violations
                .iter()
                .any(|v| matches!(v, Violation::OsrBodyMismatch { addr } if *addr == head)),
            "{err}"
        );
    }

    #[test]
    fn rejects_map_with_clobbered_scratch_register() {
        // The body reads the prefetch base with a *binding* instruction
        // after the lfetch, so removing the post-increment leaves a live
        // register diverging between versions.
        let mut a = Assembler::new();
        let top = a.new_label();
        a.bind(top);
        let head = a.here();
        a.lfetch_nt1(0, 20, 64); // r20 += 64, removed by the clone
        a.mov_to_ec(20); // binding read — migration would clobber it
        let back = a.br_cloop(top);
        a.hlt();
        let image = a.finish();
        let (map, insns) = osr_parts(&image, head, back, RewriteKind::NoPrefetch);
        let err = check_osr_map(&image, &map, RewriteKind::NoPrefetch, &insns).unwrap_err();
        assert!(
            err.violations
                .iter()
                .any(|v| matches!(v, Violation::OsrRegisterClobbered { base: 20, .. })),
            "{err}"
        );
    }
}
