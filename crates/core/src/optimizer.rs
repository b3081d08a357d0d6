//! The runtime optimizer: decides which optimization to apply to which hot
//! loop and builds the binary rewrite plans.
//!
//! §4/§5.2: COBRA implements two optimizations on the prefetches of loops
//! that contain coherent delinquent loads —
//!
//! * **noprefetch** — "selectively reduces the aggressiveness of prefetching
//!   to remove unnecessary coherent cache misses … turn them into NOP
//!   instructions". Chosen "when the data working set fits in the processor
//!   caches and many coherent misses are caused by aggressive prefetching".
//! * **prefetch.excl** — "selectively chooses prefetch instructions that
//!   cause long latency coherent misses and applies [the] .excl hint".
//!
//! The *adaptive* strategy picks between them per deployment from the
//! system-wide profile: low L3-miss rate (working set fits; misses are
//! coherence) → noprefetch; otherwise keep prefetching but take ownership
//! (`.excl`). Deployments can be reverted when the post-deployment CPI
//! regresses (continuous re-adaptation).
//!
//! ## One lifecycle
//!
//! A fixed arm, the classifier's pick and a tournament are one mechanism:
//! for every eligible loop `consider` builds a candidate set
//! (`candidate_set`) — the one uniform spec of a fixed arm or of the
//! classifier's pick (unnamed, so its plan, report entry and stored decision
//! carry no `candidate`); with `candidates`, all specs when at least three
//! are distinct; a stored winner alone. A set of one is promoted at once
//! (`deploy_winner`), a larger one is trialled (`pump_one`) and its winner
//! promoted the same way. Each loop head has one record in `loops`:
//!
//! ```text
//!  (no record) ─┐                       ┌─ set of > 1 ─▶ Contest ──┬─ winner ─┐
//!               ├─ hot and eligible: ───┤                          │          ▼
//!  Seeded ──────┘  candidate set built  └─ set of 1 ───────────────┼───▶ Deployed
//!    ▲                                                             │          │
//!    └─ warm_start {kind, winner}           nothing survived, or   │          │ CPI regressed
//!                                           the best one regresses ▼          ▼ (Revert)
//!                                                    Blacklisted(None)  Blacklisted(Some(deployment))
//!
//!  poison(head), a verifier rejection of the lasting plan, an undecodable body:
//!  any state ─▶ Blacklisted (keeping the deployment, if there was one)
//! ```
//!
//! * `Seeded { kind, winner }` — a kind that agrees with the classifier, or
//!   a winner this build still generates, is a hit; a disagreement is a
//!   mismatch (inside the shortened warm window the loop then waits for the
//!   cold one, and an unknown winner name re-runs the contest).
//! * `Contest` — baseline CPI from the pre-trial rolling window, then each
//!   candidate deployed for `TRIAL_TICKS` quanta and reverted; trial CPI is
//!   exact (Σcycles/Σinsns of the tick windows `begin_tick` hands over).
//!   The strict-minimum CPI wins.
//! * `Deployed` — regression-watched over `REGRESSION_TICKS`; past
//!   `baseline × REGRESSION_FACTOR` it is reverted and blacklisted. The
//!   watch and the trial stay two measurements: merging them would move
//!   guest numbers. Undo words are what `CodeImage::patch_word` returned; a
//!   reverted clone stays appended as dead text.
//! * `Blacklisted` — never touched again; it keeps the deployment taken
//!   back, so `export_state` still writes the decision.
//!
//! "May this loop be touched" is one check (`undecided`), and every
//! transition is one `set(head, state)`, which moves the record to the back,
//! so a tick visits deployments in deploy order, then contests in creation
//! order: that fixes the order of actions, events and plan ids.
//!
//! A candidate (`candidate_specs`) is a per-site `SiteAction::{Keep, Nop,
//! Excl}` vector over the loop's `lfetch` sites, split into the *burst* (at
//! or before the head) and the *body*; duplicates and the all-`Keep`
//! identity are dropped:
//!
//! | candidate | burst | body |
//! |---|---|---|
//! | `noprefetch` / `prefetch.excl` | nop / excl | nop / excl |
//! | `noprefetch.body` / `prefetch.excl.body` | keep | nop / excl |
//! | `combined.burst-nop` | nop | excl |
//! | `combined.split` | first ⌈n/2⌉ sites by index: nop | the rest: excl |

use std::collections::{HashMap, HashSet};

use cobra_isa::insn::{Insn, Op};
use cobra_isa::{encode, CodeAddr, CodeImage, NOP_SLOT_M};
use cobra_store::{DecisionRecord, WinnerRecord};
use serde::{Deserialize, Serialize};

use crate::profile::{CounterWindow, SystemProfile};
use crate::telemetry::TelemetryEvent;
use crate::trace::{
    loop_lfetch_sites, loops_with_delinquent_loads, select_loops, HotLoop, TraceConfig,
};

/// Which rewrite a deployment applies.
pub use cobra_isa::RewriteKind as OptKind;

/// Deployment strategy (the three §5.2 experiment arms plus Adaptive).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Strategy {
    /// Always rewrite selected prefetches to `nop.m`.
    NoPrefetch,
    /// Always add the `.excl` hint to selected prefetches.
    ExclHint,
    /// Choose per deployment from the profile.
    Adaptive,
}

/// Ticks of history in the rolling decision profile. Multi-pass programs
/// alternate CPI regimes tick by tick; the rolling window and the
/// regression horizon must span a whole pass cycle so pre/post comparisons
/// see the same mix.
pub(crate) const ROLLING_TICKS: usize = 16;

/// What a caller can set of the optimizer. The thresholds and horizons no
/// caller ever varied are constants beside the code that reads them
/// ([`Optimizer::consider`] and its helpers).
#[derive(Debug, Clone, Copy)]
pub struct OptimizerConfig {
    pub strategy: Strategy,
    pub trace: TraceConfig,
    /// Quantum ticks observed before the first deployment is allowed —
    /// lets the program's cold start age out of the rolling profile so
    /// decisions reflect steady-state behaviour.
    pub warmup_ticks: u64,
    /// Run the multi-version candidate tournament instead of the one-shot
    /// classifier deployment: generate per-`lfetch` subset/mix candidates
    /// for each eligible hot loop, trial each for a fixed number of ticks,
    /// revert, and promote the lowest-CPI candidate. Off by default — the
    /// classic two-rewrite pipeline stays byte-identical with it off.
    pub candidates: bool,
}

impl Default for OptimizerConfig {
    fn default() -> Self {
        OptimizerConfig {
            strategy: Strategy::Adaptive,
            trace: TraceConfig::default(),
            warmup_ticks: 18,
            candidates: false,
        }
    }
}

/// One planned deployment (or revert), handed from the optimizer to the
/// framework for application at a safe point.
#[derive(Debug, Clone)]
pub enum PlanAction {
    Apply(PatchPlan),
    /// Undo a previous deployment by restoring the overwritten words.
    Revert {
        plan_id: u64,
        /// Head of the loop being restored — lets the framework poison it
        /// if a restore write fails.
        loop_head: CodeAddr,
        writes: Vec<(CodeAddr, u64)>,
        reason: String,
    },
}

/// A concrete binary rewrite.
#[derive(Debug, Clone)]
pub struct PatchPlan {
    pub id: u64,
    pub kind: OptKind,
    pub loop_head: CodeAddr,
    /// Back-edge address of the loop the plan claims to optimize; the
    /// verifier bounds every patch site by `[head - entry window, back_edge]`.
    pub back_edge: CodeAddr,
    pub description: String,
    /// Tournament candidate spec name when this plan is a candidate trial
    /// or a promoted/warm-resumed winner (`None` for classic one-shot
    /// deployments).
    pub candidate: Option<String>,
    /// Words to write into the existing image, `(addr, new_word)`: the
    /// hoisted-burst rewrites and the head redirect into the trace.
    pub writes: Vec<(CodeAddr, u64)>,
    /// The rewritten clone to append before the writes land. Every plan the
    /// optimizer builds has one; [`verify_plan`] rejects a plan without.
    pub trace: Option<TracePlan>,
}

/// An optimized loop body for the trace cache.
#[derive(Debug, Clone)]
pub struct TracePlan {
    /// Where the trace must land (both sides compute `bundle_align(len)` on
    /// identical images; the apply step asserts agreement).
    pub expected_start: CodeAddr,
    pub insns: Vec<Insn>,
}

/// Check `plan` against `image` with the full `cobra-verify` rule set.
/// `entry_window_slots` is the hoisted-burst scan window of the trace
/// selector (`TraceConfig::entry_window_slots`): patch sites may precede the
/// loop head by at most that much. Exposed so the harness and benches can
/// run the exact deploy-gate check on captured plans.
pub fn verify_plan(
    image: &CodeImage,
    plan: &PatchPlan,
    entry_window_slots: u32,
) -> Result<(), cobra_verify::VerifyError> {
    // Without a clone the head redirect has nowhere to point.
    let Some(trace) = &plan.trace else {
        return Err(cobra_verify::VerifyError {
            violations: vec![cobra_verify::Violation::HeadRedirectInvalid {
                addr: plan.loop_head,
            }],
        });
    };
    cobra_verify::check_plan(
        image,
        &cobra_verify::PlanCheck {
            kind: plan.kind,
            loop_head: plan.loop_head,
            back_edge: plan.back_edge,
            region_start: plan.loop_head.saturating_sub(entry_window_slots),
            writes: &plan.writes,
            trace: cobra_verify::TraceCheck {
                expected_start: trace.expected_start,
                insns: &trace.insns,
            },
        },
    )
}

/// A rewrite that is meant to stay: what is deployed on a loop, how to take
/// it back, and what CPI it must not regress past.
#[derive(Debug)]
struct Deployment {
    plan_id: u64,
    kind: OptKind,
    /// Named candidate spec that produced this deployment (`None` when the
    /// set was the classifier's one uniform rewrite).
    candidate: Option<String>,
    /// `(candidate, trial CPI)` pairs of the contest that promoted this
    /// deployment (empty for a set of one).
    trials: Vec<(String, f64)>,
    /// `(addr, old_word)` for revert.
    undo: Vec<(CodeAddr, u64)>,
    baseline_cpi: f64,
    /// CPI of the most recent completed regression window (`None` until one
    /// closes — never a `0.0` sentinel).
    last_post_cpi: Option<f64>,
    post_ticks: u64,
}

/// Per-`lfetch`-site action in a candidate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SiteAction {
    /// Leave the site as compiled.
    Keep,
    /// Rewrite to `nop.m` (remove the prefetch).
    Nop,
    /// Flip to `lfetch.excl`.
    Excl,
}

/// One candidate rewrite of a loop: a per-site action vector over the
/// loop's `lfetch` sites (in `sites` order — burst sites first).
#[derive(Debug, Clone, PartialEq)]
struct CandidateSpec {
    /// The generator's name for this spec, carried into the plan, the report
    /// and the store. `None` for the classifier's own pick: the paper's one
    /// rewrite per loop has a kind, not a name.
    name: Option<&'static str>,
    actions: Vec<SiteAction>,
}

impl CandidateSpec {
    /// What trials and events call this spec.
    fn label(&self) -> &'static str {
        self.name.unwrap_or(plan_kind(&self.actions).name())
    }
}

/// The plan kind an action mix maps to (drives the verifier rules).
fn plan_kind(actions: &[SiteAction]) -> OptKind {
    let any_nop = actions.contains(&SiteAction::Nop);
    let any_excl = actions.contains(&SiteAction::Excl);
    match (any_nop, any_excl) {
        (true, true) => OptKind::Combined,
        (false, true) => OptKind::ExclHint,
        // All-Keep specs are filtered out at generation.
        _ => OptKind::NoPrefetch,
    }
}

/// Why [`Optimizer::stage`] produced no plan.
enum StageError {
    /// A word the plan must read no longer decodes; `stage` has already
    /// blacklisted the loop, counted it and published the event.
    Undecodable,
    /// `cobra-verify` refused the plan; what that costs the loop is the
    /// caller's policy.
    Rejected(cobra_verify::VerifyError),
}

/// Deterministic candidate list for a loop whose `lfetch` sites are
/// `sites` (sorted; burst sites — addresses below `head` — first). Specs
/// that collapse to the same action vector (e.g. the body-only variants of
/// a loop with no burst) are deduplicated keeping the first name; all-Keep
/// specs are dropped.
fn candidate_specs(sites: &[CodeAddr], head: CodeAddr) -> Vec<CandidateSpec> {
    use SiteAction::{Excl, Keep, Nop};
    // One action for the hoisted burst, one for the sites in the body.
    let per_site = |burst: SiteAction, body: SiteAction| -> Vec<SiteAction> {
        let action = |&addr: &CodeAddr| if addr >= head { body } else { burst };
        sites.iter().map(action).collect()
    };
    // The sorted site list cut in half by index, wherever the head falls.
    let split_at = sites.len().div_ceil(2);
    let split = |i: usize| if i < split_at { Nop } else { Excl };
    let raw = [
        ("noprefetch", per_site(Nop, Nop)),
        ("prefetch.excl", per_site(Excl, Excl)),
        ("noprefetch.body", per_site(Keep, Nop)),
        ("prefetch.excl.body", per_site(Keep, Excl)),
        ("combined.burst-nop", per_site(Nop, Excl)),
        ("combined.split", (0..sites.len()).map(split).collect()),
    ];
    let mut out: Vec<CandidateSpec> = Vec::with_capacity(raw.len());
    for (name, actions) in raw {
        if actions.iter().all(|&a| a == Keep) {
            continue;
        }
        if out.iter().any(|s| s.actions == actions) {
            continue;
        }
        out.push(CandidateSpec {
            name: Some(name),
            actions,
        });
    }
    out
}

/// A live candidate trial: which spec is deployed and how to take it back.
#[derive(Debug)]
struct LiveTrial {
    spec_idx: usize,
    plan_id: u64,
    /// `(addr, old_word)` restoring the pre-candidate image.
    undo: Vec<(CodeAddr, u64)>,
    /// Trial ticks observed so far.
    ticks: u64,
    /// Instructions retired across the trial's own ticks (exact per-tick
    /// sums, not the rolling window — short trials stay uncontaminated by
    /// pre-trial history).
    insns: u64,
    /// Cycles across the trial's own ticks.
    cycles: u64,
}

/// One loop's candidate tournament: trial each spec for `TRIAL_TICKS`,
/// revert, then promote the lowest-CPI candidate.
#[derive(Debug)]
struct Tournament {
    lp: HotLoop,
    sites: Vec<CodeAddr>,
    specs: Vec<CandidateSpec>,
    /// Next spec index to trial.
    next: usize,
    /// `(candidate, trial CPI)` in trial order (verify-rejected specs are
    /// skipped and never appear).
    results: Vec<(String, f64)>,
    /// Pre-tournament CPI the winner must not regress past.
    baseline_cpi: f64,
    live: Option<LiveTrial>,
}

/// Where one loop stands. A loop the optimizer has never had a reason to
/// remember has no record; every other loop has exactly one, and its state
/// only moves forward: `Seeded → Contest → Deployed → Blacklisted`, entered
/// at `Seeded` (warm start) or at the first decision. A candidate set of one
/// skips `Contest`; `poison`, a verifier rejection and an undecodable body
/// send any state straight to `Blacklisted` (the module doc draws it).
#[derive(Debug)]
enum LoopState {
    /// A prior run's knowledge, waiting for the live profile to confirm it:
    /// the kind that stuck and/or the named candidate that won. Consumed
    /// when the loop is decided; a loop that never turns hot stays here.
    Seeded {
        kind: Option<OptKind>,
        winner: Option<String>,
    },
    /// A candidate set of more than one is being trialled.
    Contest(Tournament),
    /// A rewrite is in place and watched for regression.
    Deployed(Deployment),
    /// Never to be touched again; carries the deployment that was taken
    /// back, if there was one, so the decision is still exported.
    Blacklisted(Option<Deployment>),
}

/// The optimization role's decision state: decisions, plan construction,
/// and its own synchronized copy of the program image.
#[derive(Debug)]
pub struct Optimizer {
    cfg: OptimizerConfig,
    image: CodeImage,
    /// Everything known per loop: one record per loop head, nothing else in
    /// this struct is keyed by one. A record moves to the back whenever its
    /// state changes ([`Optimizer::set`]), so records in the same state sit
    /// in the order they entered it — deployments in deploy order, contests
    /// in creation order — which is the order a tick visits them in.
    loops: Vec<(CodeAddr, LoopState)>,
    next_plan_id: u64,
    ticks_seen: u64,
    /// Whether [`Optimizer::warm_start`] ran (enables the shortened
    /// learning window even after every seed is consumed).
    warm: bool,
    /// Decision events made since the last [`Optimizer::drain_events`], in
    /// order.
    events: Vec<TelemetryEvent>,
    /// Quantum tick / machine cycle of the tick being considered (set by
    /// [`Optimizer::begin_tick`]), used to stamp telemetry events.
    cur_tick: u64,
    cur_cycle: u64,
    /// This tick's merged counter deltas (set by [`Optimizer::begin_tick`];
    /// cleared after each [`Optimizer::consider`]). Candidate trials sum
    /// these for exact per-trial CPI; `None` falls back to the rolling
    /// window.
    tick_window: Option<CounterWindow>,
}

impl Optimizer {
    /// `image` is the program text at attach time (the optimizer keeps it in
    /// sync with the machine's copy by applying its own plans).
    pub fn new(cfg: OptimizerConfig, image: CodeImage) -> Self {
        Optimizer {
            cfg,
            image,
            loops: Vec::new(),
            next_plan_id: 0,
            ticks_seen: 0,
            warm: false,
            events: Vec::new(),
            cur_tick: 0,
            cur_cycle: 0,
            tick_window: None,
        }
    }

    pub fn config(&self) -> &OptimizerConfig {
        &self.cfg
    }

    /// Open a tick: stamp subsequent decisions with the tick/cycle they
    /// belong to, and take the tick's merged counter deltas (exactly the
    /// window the phase detector sees). Candidate trials accumulate these
    /// so a trial's CPI covers precisely its own ticks, independent of the
    /// rolling-window length. The window is consumed by the next
    /// [`Optimizer::consider`].
    pub(crate) fn begin_tick(&mut self, tick: u64, cycle: u64, window: &CounterWindow) {
        self.cur_tick = tick;
        self.cur_cycle = cycle;
        self.tick_window = Some(*window);
    }

    /// The state of `head`'s loop (`None`: nothing is known about it).
    fn state(&self, head: CodeAddr) -> Option<&LoopState> {
        let (_, state) = self.loops.iter().find(|(h, _)| *h == head)?;
        Some(state)
    }

    /// Remove and return `head`'s record.
    fn take(&mut self, head: CodeAddr) -> Option<LoopState> {
        let at = self.loops.iter().position(|(h, _)| *h == head)?;
        Some(self.loops.remove(at).1)
    }

    /// The one way a loop changes state: its record is replaced and moves to
    /// the back (see the `loops` field).
    fn set(&mut self, head: CodeAddr, state: LoopState) {
        self.take(head);
        self.loops.push((head, state));
    }

    /// Whether `head` may still be decided: no record, or only a seed.
    fn undecided(&self, head: CodeAddr) -> bool {
        matches!(self.state(head), None | Some(LoopState::Seeded { .. }))
    }

    /// Add to what a prior run knew about `head`; a decided loop ignores it.
    fn seed(&mut self, head: CodeAddr, kind: Option<OptKind>, winner: Option<String>) {
        let (had_kind, had_winner) = match self.state(head) {
            None => (None, None),
            Some(LoopState::Seeded { kind, winner }) => (*kind, winner.clone()),
            Some(_) => return,
        };
        let (kind, winner) = (kind.or(had_kind), winner.or(had_winner));
        self.set(head, LoopState::Seeded { kind, winner });
    }

    /// The live profile contradicts the kind a prior run deployed on `head`:
    /// forget it. (A seeded winner names a candidate, not a kind, and stays.)
    fn forget_seeded_kind(&mut self, head: CodeAddr) {
        self.warm_verdict(head, false);
        if let Some(LoopState::Seeded { winner, .. }) = self.take(head) {
            if winner.is_some() {
                self.set(head, LoopState::Seeded { kind: None, winner });
            }
        }
    }

    /// Seed the optimizer with what a prior run stored (call before the
    /// first tick). A decision whose kind this build does not name is
    /// dropped; a reverted one, like every `blacklist` entry, puts its loop
    /// on the blacklist, which outranks any seed for it and drops a winner
    /// at its head. The seeds shorten the learning window to
    /// `WARM_WARMUP_TICKS`, but each one is still **validated against the
    /// live profile** before deploying — a mismatch drops the seed and the
    /// loop falls back to the normal post-`warmup_ticks` decision path.
    /// Returns how many decisions, winners and blacklisted loops the records
    /// seeded, before the live-image check.
    pub(crate) fn warm_start(
        &mut self,
        decisions: &[DecisionRecord],
        winners: &[WinnerRecord],
        blacklist: &[CodeAddr],
    ) -> (usize, usize, usize) {
        self.warm = true;
        let mut kinds = Vec::new();
        let mut blacklist = blacklist.to_vec();
        for d in decisions {
            let Some(kind) = OptKind::from_name(&d.kind) else {
                continue;
            };
            if d.reverted {
                blacklist.push(d.loop_head);
            } else {
                kinds.push((d.loop_head, kind));
            }
        }
        blacklist.sort_unstable();
        blacklist.dedup();
        let winners: Vec<&WinnerRecord> = winners
            .iter()
            .filter(|w| blacklist.binary_search(&w.loop_head).is_err())
            .collect();
        let seeded = (kinds.len(), winners.len(), blacklist.len());
        // Re-verify each distinct seeded head against the *live* image: the
        // store is keyed by image hash, but a corrupted snapshot record (or
        // a hash collision) must not smuggle a stale loop head past the
        // deploy gate — nor let a stale winner skip the tournament *and*
        // the safety check. A surviving tournament winner arrives as both a
        // decision and a winner seed; one rejection drops both, and the
        // loop falls back to the cold decision path.
        let mut checked = HashSet::new();
        let mut rejected = HashSet::new();
        let decision_heads = kinds.iter().map(|&(head, _)| head);
        let heads = decision_heads.chain(winners.iter().map(|w| w.loop_head));
        for head in heads.filter(|&head| checked.insert(head)) {
            if let Err(err) = cobra_verify::check_seed(&self.image, head) {
                self.reject(head, format!("warm seed: {err}"));
                rejected.insert(head);
            }
        }
        let live = |head: &CodeAddr| !rejected.contains(head);
        for (head, kind) in kinds.into_iter().filter(|(h, _)| live(h)) {
            self.seed(head, Some(kind), None);
        }
        for w in winners.into_iter().filter(|w| live(&w.loop_head)) {
            self.seed(w.loop_head, None, Some(w.candidate.clone()));
        }
        // A stale blacklist entry is conservative (skips a loop), so it
        // needs no verification; it outranks a seed for the same loop.
        for head in blacklist {
            if self.undecided(head) {
                self.set(head, LoopState::Blacklisted(None));
            }
        }
        seeded
    }

    /// What this run learned, as the store keeps it: each loop's final
    /// decision, the tournament winners still standing, and the blacklist,
    /// all sorted by loop head so snapshots serialize deterministically. A
    /// warm run resumes a winner directly instead of re-running its
    /// tournament.
    pub(crate) fn export_state(&self) -> (Vec<DecisionRecord>, Vec<WinnerRecord>, Vec<CodeAddr>) {
        let mut decisions = Vec::new();
        let mut winners = Vec::new();
        let mut blacklist = Vec::new();
        for (head, state) in &self.loops {
            let (d, reverted) = match state {
                LoopState::Deployed(d) => (d, false),
                LoopState::Blacklisted(taken_back) => {
                    blacklist.push(*head);
                    match taken_back {
                        Some(d) => (d, true),
                        None => continue,
                    }
                }
                LoopState::Seeded { .. } | LoopState::Contest(_) => continue,
            };
            decisions.push(DecisionRecord {
                loop_head: *head,
                kind: d.kind.name().to_string(),
                reverted,
                baseline_cpi: d.baseline_cpi,
                post_cpi: d.last_post_cpi,
            });
            if let (false, Some(candidate)) = (reverted, &d.candidate) {
                winners.push(WinnerRecord {
                    loop_head: *head,
                    candidate: candidate.clone(),
                    kind: d.kind.name().to_string(),
                    trials: d.trials.clone(),
                });
            }
        }
        decisions.sort_by_key(|d| d.loop_head);
        winners.sort_by_key(|w| w.loop_head);
        blacklist.sort_unstable();
        (decisions, winners, blacklist)
    }

    fn emit(&mut self, event: TelemetryEvent) {
        self.events.push(event);
    }

    /// The decision events (classifications, trials, rejections,
    /// blacklists) made since the last call, for the caller to publish: the
    /// optimizer keeps no telemetry handle of its own.
    pub fn drain_events(&mut self) -> impl Iterator<Item = TelemetryEvent> + '_ {
        self.events.drain(..)
    }

    /// The live profile agreed (`hit`) or disagreed with what a prior run
    /// seeded for `loop_head`.
    fn warm_verdict(&mut self, loop_head: CodeAddr, hit: bool) {
        self.emit(TelemetryEvent::WarmVerdict {
            tick: self.cur_tick,
            cycle: self.cur_cycle,
            loop_head,
            hit,
        });
    }

    /// Publish one `cobra-verify` rejection (plan or warm seed).
    fn reject(&mut self, loop_head: CodeAddr, reason: String) {
        self.emit(TelemetryEvent::VerifyReject {
            tick: self.cur_tick,
            cycle: self.cur_cycle,
            loop_head,
            reason,
        });
    }

    /// `loop_head` will never be touched again; `taken_back` is the
    /// deployment it had, if any.
    fn blacklist(&mut self, loop_head: CodeAddr, taken_back: Option<Deployment>) {
        self.set(loop_head, LoopState::Blacklisted(taken_back));
        self.emit(TelemetryEvent::Blacklist {
            tick: self.cur_tick,
            cycle: self.cur_cycle,
            loop_head,
        });
    }

    /// Minimum merged samples before the first decision.
    const MIN_PROFILE_SAMPLES: u64 = 32;
    /// Minimum system-wide coherent-bus ratio before optimizing at all.
    const MIN_COHERENT_RATIO: f64 = 0.05;
    /// Minimum DEAR captures at one PC before it counts as delinquent.
    const MIN_DEAR_SAMPLES: u64 = 3;
    /// Minimum fraction of a site's qualifying misses in the coherent band.
    const MIN_COHERENT_FRACTION: f64 = 0.5;
    /// §4's counter-only path: when the system-wide coherent ratio is at
    /// least this intense, optimize the hottest prefetching loops even if
    /// the DEAR pinpointed no individual load (store-upgrade-dominated
    /// pathologies never latch the DEAR, which samples loads).
    const FALLBACK_COHERENT_RATIO: f64 = 0.25;
    /// At most this many loops optimized through the counter-only path.
    const FALLBACK_MAX_LOOPS: usize = 4;
    /// Deployments per quantum tick: deploying incrementally lets the
    /// CPI-regression feedback assign blame to individual deployments.
    const MAX_DEPLOYS_PER_TICK: usize = 1;
    /// Revert a deployment whose post-deployment CPI exceeds the
    /// pre-deployment CPI by this factor (and blacklist a contest whose best
    /// candidate does). Trial-and-revert is the framework's answer to
    /// pathologies no ex-ante profile signal can distinguish — e.g. loops
    /// whose prefetches hide *true-sharing* coherent misses look identical,
    /// before patching, to loops whose prefetches *cause* coherent misses.
    /// Reverted loops are blacklisted, so each loop is trialled at most once.
    const REGRESSION_FACTOR: f64 = 1.4;
    /// Quantum ticks observed after a deployment before judging regression:
    /// more than [`ROLLING_TICKS`], so the rolling window is wholly
    /// post-deployment.
    const REGRESSION_TICKS: u64 = 20;
    /// The learning window of a run warm-started from a store snapshot
    /// (capped by `warmup_ticks`): *seeded* loops, deployed and validated in
    /// a prior run, may deploy after this many ticks; unseeded loops still
    /// wait out the full `warmup_ticks`, so a warm run converges to the same
    /// final deployment set as a cold one, just earlier.
    const WARM_WARMUP_TICKS: u64 = 6;
    /// Quantum ticks each tournament candidate stays deployed before its
    /// trial CPI is read. Trials measure against exact per-tick counter
    /// sums (see [`Optimizer::begin_tick`]), so short windows stay
    /// accurate; four average out scheduling noise without making the
    /// tournament long.
    const TRIAL_TICKS: u64 = 4;

    /// Evaluate the current profile; returns any plans to deploy or revert.
    pub fn consider(&mut self, profile: &SystemProfile) -> Vec<PlanAction> {
        let mut actions = Vec::new();
        self.ticks_seen += 1;
        // This tick's exact deltas when the driver provided them (rolling
        // window otherwise, e.g. when driven directly in tests).
        let tick_window = self.tick_window.take().unwrap_or(profile.window);
        self.track_regressions(profile, &mut actions);
        self.pump_contests(profile, &tick_window, &mut actions);

        // A warm-started run may act after the shortened learning window —
        // but only on seeded loops (see below); everything else still waits
        // out the full cold warmup.
        let warmup_gate = if self.warm {
            Self::WARM_WARMUP_TICKS.min(self.cfg.warmup_ticks)
        } else {
            self.cfg.warmup_ticks
        };
        if self.ticks_seen <= warmup_gate {
            return actions;
        }
        let in_warm_window = self.warm && self.ticks_seen <= self.cfg.warmup_ticks;
        if profile.samples < Self::MIN_PROFILE_SAMPLES {
            return actions;
        }
        if profile.window.coherent_ratio() < Self::MIN_COHERENT_RATIO {
            return actions;
        }
        let hot_pcs: Vec<CodeAddr> = profile
            .coherent_delinquent(Self::MIN_DEAR_SAMPLES, Self::MIN_COHERENT_FRACTION)
            .into_iter()
            .map(|(pc, _)| pc)
            .collect();
        // The one "may this loop be touched" check: a loop in a contest,
        // deployed or blacklisted is decided and drops out here.
        let mut loops = select_loops(profile, &self.cfg.trace);
        loops.retain(|lp| self.undecided(lp.head));
        // Eligible: loops pinpointed by DEAR captures, plus — when the
        // system-wide coherent ratio is intense — the hottest other loops
        // (the counter-only path of §4: the DEAR latches one event per
        // sample, so store-upgrade-dominated loops rarely surface there).
        let mut eligible = loops_with_delinquent_loads(&loops, &hot_pcs);
        if profile.window.coherent_ratio() >= Self::FALLBACK_COHERENT_RATIO {
            let others: Vec<HotLoop> = loops
                .iter()
                .filter(|lp| !eligible.iter().any(|c| c.head == lp.head))
                .take(Self::FALLBACK_MAX_LOOPS)
                .cloned()
                .collect();
            eligible.extend(others);
        }
        // Seeded loops are eligible on prior-run evidence alone: this early
        // in a warm run the DEAR may not have re-pinpointed them yet.
        let seeded = |(_, s): &(CodeAddr, LoopState)| matches!(s, LoopState::Seeded { .. });
        if self.loops.iter().any(seeded) {
            for lp in &loops {
                if self.state(lp.head).is_some() && !eligible.iter().any(|c| c.head == lp.head) {
                    eligible.push(lp.clone());
                }
            }
        }
        let mut deployed_this_tick = 0usize;
        for lp in eligible {
            if deployed_this_tick >= Self::MAX_DEPLOYS_PER_TICK {
                break;
            }
            // During the shortened learning window only loops with a seeded
            // (previously validated) decision may deploy; unseeded loops
            // wait out the full cold warmup so a warm run converges to the
            // same deployment set as a cold one.
            if in_warm_window && self.state(lp.head).is_none() {
                continue;
            }
            // Never optimize our own optimized traces (their back edges are
            // hot in the BTB too), and never trust loop candidates whose
            // body extends into the trace-cache region (mispaired branches).
            if self.image.is_trace_addr(lp.head) || self.image.is_trace_addr(lp.back_edge) {
                continue;
            }
            let sites = loop_lfetch_sites(&self.image, &lp, &self.cfg.trace);
            if sites.is_empty() {
                continue;
            }
            let prefetch_effective = self.classify(&lp, profile);
            let kind = self.choose_kind(prefetch_effective);
            self.emit(TelemetryEvent::LoopClassified {
                tick: self.cur_tick,
                cycle: self.cur_cycle,
                loop_head: lp.head,
                back_edge: lp.back_edge,
                prefetch_effective,
                decision: kind,
            });
            let Some(set) = self.candidate_set(lp.head, &sites, kind, in_warm_window) else {
                continue;
            };
            // The one place a candidate set becomes a deployment or a
            // contest: a set of one has nothing to be compared with.
            if let [spec] = set.as_slice() {
                if self.deploy_winner(&lp, &sites, spec, &[], profile, &mut actions) {
                    deployed_this_tick += 1;
                }
            } else {
                let contest = Tournament {
                    sites,
                    specs: set,
                    next: 0,
                    results: Vec::new(),
                    baseline_cpi: profile.window.cpi(),
                    live: None,
                    lp,
                };
                self.set(contest.lp.head, LoopState::Contest(contest));
                deployed_this_tick += 1;
            }
        }
        actions
    }

    /// The rewrites worth considering for one undecided loop the classifier
    /// wants rewritten as `kind`, settling whatever a prior run seeded for
    /// it on the way. `None`: leave the loop alone this tick.
    ///
    /// * the paper's fixed arms and classic adaptive: the one uniform
    ///   rewrite the classifier picked;
    /// * `candidates` with at least three distinct specs: all of them — or
    ///   only the stored winner, when a prior run already held the contest.
    fn candidate_set(
        &mut self,
        head: CodeAddr,
        sites: &[CodeAddr],
        kind: Option<OptKind>,
        in_warm_window: bool,
    ) -> Option<Vec<CandidateSpec>> {
        let seed_kind = match self.state(head) {
            Some(LoopState::Seeded { kind, .. }) => *kind,
            _ => None,
        };
        let Some(kind) = kind else {
            // The classifier declines (the rewrite would remove effective
            // prefetches), whatever a prior run did.
            if seed_kind.is_some() {
                self.forget_seeded_kind(head);
            }
            return None;
        };
        let mut specs = if self.cfg.candidates {
            candidate_specs(sites, head)
        } else {
            Vec::new()
        };
        if specs.len() >= 3 {
            // A contest decides from scratch, so a seeded kind (which names
            // no candidate) is neither a hit nor a mismatch here. A stored
            // winner is the whole set — unless this build no longer
            // generates a spec of that name, which re-runs the contest.
            if let Some(LoopState::Seeded {
                winner: Some(name), ..
            }) = self.state(head)
            {
                match specs.iter().position(|s| s.name == Some(name.as_str())) {
                    Some(at) => {
                        self.warm_verdict(head, true);
                        return Some(vec![specs.swap_remove(at)]);
                    }
                    None => self.warm_verdict(head, false),
                }
            }
            return Some(specs);
        }
        // Fewer than three distinct candidates (e.g. a single-site loop):
        // a contest adds nothing.
        if let Some(seeded) = seed_kind {
            if seeded == kind {
                self.warm_verdict(head, true);
            } else if in_warm_window {
                // Mismatched seeds never deploy early; the loop falls back
                // to the normal post-warmup path.
                self.forget_seeded_kind(head);
                return None;
            } else {
                self.warm_verdict(head, false);
            }
        }
        let action = match kind {
            OptKind::NoPrefetch => SiteAction::Nop,
            _ => SiteAction::Excl,
        };
        Some(vec![CandidateSpec {
            name: None,
            actions: vec![action; sites.len()],
        }])
    }

    /// Per-loop memory-band fraction of the DEAR captures inside the loop
    /// (`None` when the loop has no DEAR captures).
    fn loop_memory_fraction(&self, lp: &HotLoop, profile: &SystemProfile) -> Option<f64> {
        let mut coherent = 0u64;
        let mut memory = 0u64;
        for (&pc, stats) in &profile.delinquent {
            if lp.contains(pc) {
                coherent += stats.coherent;
                memory += stats.memory;
            }
        }
        let total = coherent + memory;
        if total == 0 {
            None
        } else {
            Some(memory as f64 / total as f64)
        }
    }

    /// The §5.2 filter: noprefetch targets "instructions that cause
    /// frequent L3 misses **when [the] L2 miss ratio is low**" — a low L2
    /// miss rate means the working set fits L2, so remaining misses are
    /// coherence, not capacity. At or above this L2-misses-per-kilo-
    /// instruction rate the code is streaming and prefetches stay.
    const L2_KINST_THRESHOLD: f64 = 10.5;
    /// §5.2: "noprefetch … needs precise runtime profiles to avoid removing
    /// effective prefetches". A loop whose in-loop DEAR captures are more
    /// than this fraction *memory-band* keeps its prefetches: the fixed
    /// NoPrefetch strategy skips it; Adaptive falls back to `.excl`.
    const MAX_MEMORY_FRACTION: f64 = 0.4;

    /// Classify one loop's prefetches. They are *effective* (worth keeping)
    /// when the code streams through L2 (high L2 miss rate — the inverse of
    /// §5.2's "L2 miss ratio is low" condition) or when the loop's DEAR
    /// captures sit in the memory band.
    fn classify(&self, lp: &HotLoop, profile: &SystemProfile) -> bool {
        let mem_frac = self.loop_memory_fraction(lp, profile);
        profile.window.capacity_l2_per_kinst() >= Self::L2_KINST_THRESHOLD
            || mem_frac.is_some_and(|f| f > Self::MAX_MEMORY_FRACTION)
    }

    /// Decide the rewrite from a loop's classification — or decline
    /// (`None`) when removing the prefetches would hurt.
    fn choose_kind(&self, prefetch_effective: bool) -> Option<OptKind> {
        match (self.cfg.strategy, prefetch_effective) {
            // "avoid removing effective prefetches" (§5.2).
            (Strategy::NoPrefetch, true) => None,
            (Strategy::NoPrefetch | Strategy::Adaptive, false) => Some(OptKind::NoPrefetch),
            (Strategy::ExclHint, _) | (Strategy::Adaptive, true) => Some(OptKind::ExclHint),
        }
    }

    /// Apply one site action to an instruction (anything but an `lfetch`
    /// passes through unchanged).
    fn rewrite_site(&self, insn: &Insn, action: SiteAction) -> Insn {
        match (action, insn.op) {
            (SiteAction::Nop, Op::Lfetch { .. }) => NOP_SLOT_M,
            (
                SiteAction::Excl,
                Op::Lfetch {
                    base,
                    post_inc,
                    hint,
                    ..
                },
            ) => Insn::pred(
                insn.qp,
                Op::Lfetch {
                    base,
                    post_inc,
                    hint,
                    excl: true,
                },
            ),
            _ => *insn,
        }
    }

    /// Build a rewrite plan from a spec (`spec.actions[i]` applies to
    /// `sites[i]`). Returns `None` when any word the plan must read fails
    /// to decode.
    fn build_plan(
        &mut self,
        lp: &HotLoop,
        sites: &[CodeAddr],
        spec: &CandidateSpec,
        profile: &SystemProfile,
    ) -> Option<PatchPlan> {
        let actions = &spec.actions;
        let kind = plan_kind(actions);
        let id = self.next_plan_id;
        self.next_plan_id += 1;
        let action_at: HashMap<CodeAddr, SiteAction> =
            sites.iter().copied().zip(actions.iter().copied()).collect();
        let description = format!(
            "{}{} on loop [{},{}] ({} lfetch sites; coherent ratio {:.3}, L3/kinst {:.2})",
            kind.name(),
            spec.name.map(|c| format!(" [{c}]")).unwrap_or_default(),
            lp.head,
            lp.back_edge,
            sites.len(),
            profile.window.coherent_ratio(),
            profile.window.l3_per_kinst(),
        );
        // Sites rewritten where they stand: only the hoisted burst, which
        // lies outside the cloned body.
        let mut writes: Vec<(CodeAddr, u64)> = Vec::with_capacity(sites.len() + 1);
        for (&addr, &action) in sites.iter().zip(actions) {
            if action == SiteAction::Keep || addr >= lp.head {
                continue;
            }
            let insn = self.image.insn(addr).ok()?;
            writes.push((addr, encode(&self.rewrite_site(&insn, action))));
        }
        // Clone the body, rewriting in-body prefetches and retargeting the
        // back edge to the trace-local head.
        let expected_start = cobra_isa::bundle_align(self.image.len());
        let mut insns = Vec::with_capacity(lp.len() as usize + 1);
        for addr in lp.head..=lp.back_edge {
            let mut insn = self.image.insn(addr).ok()?;
            if let Some(&action) = action_at.get(&addr) {
                insn = self.rewrite_site(&insn, action);
            }
            if insn.op.branch_target() == Some(lp.head) {
                insn.op = insn.op.with_branch_target(expected_start)?;
            }
            insns.push(insn);
        }
        // Exit: fall through the cloned back edge, branch back to the
        // instruction after the original back edge.
        insns.push(Insn::new(Op::BrCond {
            target: lp.back_edge + 1,
        }));
        // The original head becomes a redirect into the trace.
        let redirect = Insn::new(Op::BrCond {
            target: expected_start,
        });
        writes.push((lp.head, encode(&redirect)));
        Some(PatchPlan {
            id,
            kind,
            loop_head: lp.head,
            back_edge: lp.back_edge,
            description,
            candidate: spec.name.map(str::to_string),
            writes,
            trace: Some(TracePlan {
                expected_start,
                insns,
            }),
        })
    }

    /// The deploy gate, the only way a plan reaches either image: build it,
    /// machine-check it against the live image with `cobra-verify`, and
    /// apply it to the own image, keeping the words it overwrote.
    fn stage(
        &mut self,
        lp: &HotLoop,
        sites: &[CodeAddr],
        spec: &CandidateSpec,
        profile: &SystemProfile,
    ) -> Result<(PatchPlan, Vec<(CodeAddr, u64)>), StageError> {
        let Some(plan) = self.build_plan(lp, sites, spec, profile) else {
            // A word in the loop no longer decodes (e.g. foreign bytes in
            // the text): never retry the loop, don't abort the optimizer.
            self.set(lp.head, LoopState::Blacklisted(None));
            self.emit(TelemetryEvent::UndecodableLoop {
                tick: self.cur_tick,
                cycle: self.cur_cycle,
                loop_head: lp.head,
            });
            return Err(StageError::Undecodable);
        };
        verify_plan(&self.image, &plan, self.cfg.trace.entry_window_slots)
            .map_err(StageError::Rejected)?;
        let undo = self.apply_to_own_image(&plan);
        Ok((plan, undo))
    }

    /// Apply a plan to the optimizer's own image copy (keeps both sides'
    /// trace-cache layout identical). Returns `(addr, old_word)` for every
    /// word the plan overwrote: writing those back undoes it.
    fn apply_to_own_image(&mut self, plan: &PatchPlan) -> Vec<(CodeAddr, u64)> {
        if let Some(trace) = &plan.trace {
            // Invariant: expected_start was computed as bundle_align(len) of
            // this same image just before this call — appending cannot land
            // anywhere else unless the plan was built against a stale image,
            // which the single-threaded build→apply sequence rules out.
            let start = self.image.append_trace(&trace.insns);
            assert_eq!(start, trace.expected_start, "trace layout divergence");
        }
        // Invariant: plan writes only target addresses read from this image
        // moments ago (and already decoded), so they are in range.
        let patch = |&(addr, word)| {
            (
                addr,
                self.image.patch_word(addr, word).expect("own-image patch"),
            )
        };
        plan.writes.iter().map(patch).collect()
    }

    /// Write saved words back into the own image.
    fn restore_own_image(&mut self, undo: &[(CodeAddr, u64)]) {
        for &(addr, old) in undo {
            // Invariant: undo words restore addresses this optimizer
            // patched when it staged the plan — always in range on our copy.
            self.image.patch_word(addr, old).expect("own-image revert");
        }
    }

    /// Advance every contest by one tick, in creation order: close a
    /// finished trial window (record its CPI, revert the candidate), start
    /// the next candidate, and promote the winner once all have run.
    fn pump_contests(
        &mut self,
        profile: &SystemProfile,
        tick_window: &CounterWindow,
        actions: &mut Vec<PlanAction>,
    ) {
        let mut at = 0;
        while at < self.loops.len() {
            if !matches!(self.loops[at].1, LoopState::Contest(_)) {
                at += 1;
                continue;
            }
            // Out of the collection while it is pumped (staging a candidate
            // needs all of `self`). A finished contest has recorded where
            // the loop went, at the back; an unfinished one keeps its place.
            let (head, LoopState::Contest(mut t)) = self.loops.remove(at) else {
                unreachable!("matched a contest just above");
            };
            if !self.pump_one(&mut t, profile, tick_window, actions) {
                self.loops.insert(at, (head, LoopState::Contest(t)));
                at += 1;
            }
        }
    }

    /// Advance one contest; returns `true` when it is finished (promoted or
    /// abandoned), the loop's new state already recorded.
    fn pump_one(
        &mut self,
        t: &mut Tournament,
        profile: &SystemProfile,
        tick_window: &CounterWindow,
        actions: &mut Vec<PlanAction>,
    ) -> bool {
        if let Some(live) = &mut t.live {
            live.ticks += 1;
            live.insns += tick_window.instructions;
            live.cycles += tick_window.cycles;
            if live.ticks >= Self::TRIAL_TICKS && live.insns > 0 {
                let cpi = live.cycles as f64 / live.insns as f64;
                let name = t.specs[live.spec_idx].label();
                t.results.push((name.to_string(), cpi));
                self.emit(TelemetryEvent::CandidateTrial {
                    tick: self.cur_tick,
                    cycle: self.cur_cycle,
                    loop_head: t.lp.head,
                    candidate: name.to_string(),
                    plan_id: live.plan_id,
                    trial_ticks: live.ticks,
                    baseline_cpi: t.baseline_cpi,
                    cpi,
                });
                self.restore_own_image(&live.undo);
                actions.push(PlanAction::Revert {
                    plan_id: live.plan_id,
                    loop_head: t.lp.head,
                    writes: live.undo.clone(),
                    reason: format!("candidate '{name}' trial complete (cpi {cpi:.3})"),
                });
                t.live = None;
                t.next += 1;
            }
            return false;
        }
        // Arm the baseline from the first usable window before any
        // candidate deploys (contests created on a sample-starved tick
        // would otherwise compare against 0).
        if t.next == 0 && t.baseline_cpi <= 0.0 && profile.window.instructions > 0 {
            t.baseline_cpi = profile.window.cpi();
        }
        // Start the next candidate, skipping any the verifier rejects.
        while t.next < t.specs.len() {
            let spec = &t.specs[t.next];
            let (plan, undo) = match self.stage(&t.lp, &t.sites, spec, profile) {
                Ok(staged) => staged,
                // The loop stopped decoding mid-contest: abandon it.
                Err(StageError::Undecodable) => return true,
                Err(StageError::Rejected(err)) => {
                    // Reject only this candidate; the rest still compete.
                    self.reject(t.lp.head, format!("candidate '{}': {err}", spec.label()));
                    t.next += 1;
                    continue;
                }
            };
            t.live = Some(LiveTrial {
                spec_idx: t.next,
                plan_id: plan.id,
                undo,
                ticks: 0,
                insns: 0,
                cycles: 0,
            });
            actions.push(PlanAction::Apply(plan));
            return false;
        }
        // Every candidate has been trialed (or rejected): settle.
        self.finish_contest(t, profile, actions);
        true
    }

    /// Pick and deploy the contest's winner, or blacklist the loop when no
    /// candidate survived / even the best one regresses.
    fn finish_contest(
        &mut self,
        t: &Tournament,
        profile: &SystemProfile,
        actions: &mut Vec<PlanAction>,
    ) {
        // Lowest trial CPI wins; strict `<` keeps the earliest candidate on
        // ties, so outcomes are deterministic across runs. No result at all
        // means every candidate was verifier-rejected or no window closed.
        let mut winner: Option<&(String, f64)> = None;
        for result in &t.results {
            if winner.is_none_or(|best| result.1 < best.1) {
                winner = Some(result);
            }
        }
        // A best candidate that still regresses past the revert threshold
        // leaves the loop alone for good.
        let regresses =
            |cpi: f64| t.baseline_cpi > 0.0 && cpi > t.baseline_cpi * Self::REGRESSION_FACTOR;
        let spec = winner
            .filter(|&&(_, cpi)| !regresses(cpi))
            .and_then(|(name, _)| t.specs.iter().find(|s| s.label() == name));
        let promoted = match spec {
            Some(spec) => self.deploy_winner(&t.lp, &t.sites, spec, &t.results, profile, actions),
            None => {
                self.blacklist(t.lp.head, None);
                false
            }
        };
        self.emit(TelemetryEvent::TournamentOutcome {
            tick: self.cur_tick,
            cycle: self.cur_cycle,
            loop_head: t.lp.head,
            candidates: t.specs.len(),
            winner: winner.map(|(name, _)| name.clone()),
            winner_cpi: winner.map(|&(_, cpi)| cpi),
            promoted,
        });
    }

    /// Stage `spec` as the lasting rewrite for `lp` — a candidate set of one
    /// (the classifier's pick, or a warm-started winner) or a contest's
    /// winner with its `trials`. Returns whether the deployment landed;
    /// failures blacklist the loop rather than deploy a miscompile.
    fn deploy_winner(
        &mut self,
        lp: &HotLoop,
        sites: &[CodeAddr],
        spec: &CandidateSpec,
        trials: &[(String, f64)],
        profile: &SystemProfile,
        out: &mut Vec<PlanAction>,
    ) -> bool {
        let (plan, undo) = match self.stage(lp, sites, spec, profile) {
            Ok(staged) => staged,
            Err(StageError::Undecodable) => return false,
            Err(StageError::Rejected(err)) => {
                self.set(lp.head, LoopState::Blacklisted(None));
                let reason = match spec.name {
                    Some(name) => format!("winner '{name}': {err}"),
                    None => err.to_string(),
                };
                self.reject(lp.head, reason);
                return false;
            }
        };
        let deployment = Deployment {
            plan_id: plan.id,
            kind: plan.kind,
            candidate: plan.candidate.clone(),
            trials: trials.to_vec(),
            undo,
            baseline_cpi: profile.window.cpi(),
            last_post_cpi: None,
            post_ticks: 0,
        };
        self.set(lp.head, LoopState::Deployed(deployment));
        out.push(PlanAction::Apply(plan));
        true
    }

    /// Abandon all optimization of `loop_head` after a guest-side patch
    /// failure (an apply rolled back or a revert stopped): whatever state
    /// the loop was in — a contest with a trial in flight included — it is
    /// blacklisted, and a deployment it had counts as reverted. The
    /// optimizer's own image copy is deliberately left as-is — blacklisted
    /// heads are never re-read for planning, and rewinding trace appendices
    /// would desync the two sides' layouts.
    pub(crate) fn poison(&mut self, loop_head: CodeAddr) {
        let taken_back = match self.take(loop_head) {
            Some(LoopState::Deployed(d)) | Some(LoopState::Blacklisted(Some(d))) => Some(d),
            _ => None,
        };
        self.blacklist(loop_head, taken_back);
    }

    /// Accumulate post-deployment CPI and emit reverts on regression.
    fn track_regressions(&mut self, profile: &SystemProfile, actions: &mut Vec<PlanAction>) {
        if profile.samples == 0 {
            return;
        }
        let mut regressed: Vec<(CodeAddr, String)> = Vec::new();
        for (head, state) in &mut self.loops {
            let LoopState::Deployed(d) = state else {
                continue;
            };
            d.post_ticks += 1;
            // The deployment-time window may have had too few intra-thread
            // sample pairs for a CPI (tiny regions); arm the baseline from
            // the first usable post-deployment window instead — regressions
            // are then judged against optimized steady state, which is the
            // behaviour re-adaptation should preserve.
            if d.baseline_cpi <= 0.0 {
                if profile.window.instructions > 0 {
                    d.baseline_cpi = profile.window.cpi();
                }
                continue;
            }
            if d.post_ticks >= Self::REGRESSION_TICKS && profile.window.instructions > 0 {
                // The rolling window is fully post-deployment by now.
                let post_cpi = profile.window.cpi();
                d.last_post_cpi = Some(post_cpi);
                let regressed_now =
                    d.baseline_cpi > 0.0 && post_cpi > d.baseline_cpi * Self::REGRESSION_FACTOR;
                // (`self.emit` would need all of `self`; the loop holds
                // `self.loops`.)
                self.events.push(TelemetryEvent::CpiTrial {
                    tick: self.cur_tick,
                    cycle: self.cur_cycle,
                    plan_id: d.plan_id,
                    post_ticks: d.post_ticks,
                    baseline_cpi: d.baseline_cpi,
                    post_cpi,
                    regressed: regressed_now,
                });
                if regressed_now {
                    let reason = format!(
                        "CPI regressed {:.3} -> {:.3}; reverting",
                        d.baseline_cpi, post_cpi
                    );
                    regressed.push((*head, reason));
                }
            }
        }
        for (loop_head, reason) in regressed {
            let Some(LoopState::Deployed(d)) = self.take(loop_head) else {
                continue;
            };
            // Restore our own copy, and never touch this loop again.
            self.restore_own_image(&d.undo);
            actions.push(PlanAction::Revert {
                plan_id: d.plan_id,
                loop_head,
                writes: d.undo.clone(),
                reason,
            });
            self.blacklist(loop_head, Some(d));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::{CounterWindow, LatencyBands, ProfileDelta, SystemProfile};
    use crate::report::CobraReport;
    use cobra_isa::{Assembler, LfetchHint};

    impl Optimizer {
        /// Loops with a candidate contest in flight.
        fn contests(&self) -> usize {
            let contest = |(_, s): &&(CodeAddr, LoopState)| matches!(s, LoopState::Contest(_));
            self.loops.iter().filter(contest).count()
        }

        /// Number of applied (non-reverted) deployments.
        fn active_deployments(&self) -> usize {
            let deployed = |(_, s): &&(CodeAddr, LoopState)| matches!(s, LoopState::Deployed(_));
            self.loops.iter().filter(deployed).count()
        }
    }

    /// A prior run's live decision: `kind` deployed on `loop_head`.
    fn decided(loop_head: CodeAddr, kind: OptKind) -> DecisionRecord {
        DecisionRecord {
            loop_head,
            kind: kind.name().into(),
            reverted: false,
            baseline_cpi: 1.0,
            post_cpi: None,
        }
    }

    /// A prior run's standing tournament winner at `loop_head`.
    fn won(loop_head: CodeAddr, candidate: &str, kind: OptKind) -> WinnerRecord {
        WinnerRecord {
            loop_head,
            candidate: candidate.into(),
            kind: kind.name().into(),
            trials: Vec::new(),
        }
    }

    /// What a run's report counts from the events `opt` has made so far.
    fn observed(opt: &Optimizer) -> CobraReport {
        let mut report = CobraReport::default();
        opt.events.iter().for_each(|e| report.observe(e));
        report
    }

    /// A loop image shaped like minicc output: burst, head, body with
    /// lfetch, back edge.
    fn loop_image() -> (CodeImage, CodeAddr, CodeAddr, CodeAddr) {
        let mut a = Assembler::new();
        a.lfetch_nt1(0, 10, 128); // hoisted burst
        a.lfetch_nt1(0, 10, 128);
        let top = a.new_label();
        a.bind(top);
        let head = a.here();
        let load_pc = a.ldfd(16, 32, 2, 8);
        a.lfetch_nt1(16, 27, 8);
        a.stfd(23, 46, 4, 8);
        let back = a.br_ctop(top);
        a.hlt();
        (a.finish(), head, back, load_pc)
    }

    fn hot_profile_lat(
        load_pc: CodeAddr,
        head: CodeAddr,
        back: CodeAddr,
        miss_kinst: f64,
        dear_latency: u64,
    ) -> SystemProfile {
        let mut sp = SystemProfile::new(LatencyBands { coherent_min: 165 });
        let mut delta = ProfileDelta {
            samples: 100,
            window: CounterWindow {
                instructions: 100_000,
                cycles: 150_000,
                bus_memory: 1000,
                bus_coherent: 300,
                l2_miss: (miss_kinst * 100.0) as u64,
                l3_miss: (miss_kinst * 100.0) as u64,
            },
            ..ProfileDelta::default()
        };
        for _ in 0..20 {
            delta.dear_events.push((load_pc, dear_latency));
            delta.branch_pairs.push((back, head));
        }
        sp.absorb(&delta);
        sp
    }

    fn hot_profile(
        load_pc: CodeAddr,
        head: CodeAddr,
        back: CodeAddr,
        l3_kinst: f64,
    ) -> SystemProfile {
        hot_profile_lat(load_pc, head, back, l3_kinst, 200)
    }

    #[test]
    fn adaptive_picks_noprefetch_when_working_set_fits() {
        let (image, head, back, load_pc) = loop_image();
        let mut opt = Optimizer::new(
            OptimizerConfig {
                warmup_ticks: 0,
                ..Default::default()
            },
            image.clone(),
        );
        let profile = hot_profile(load_pc, head, back, 1.0);
        let actions = opt.consider(&profile);
        assert_eq!(actions.len(), 1);
        match &actions[0] {
            PlanAction::Apply(plan) => {
                assert_eq!(plan.kind, OptKind::NoPrefetch);
                assert_eq!(plan.loop_head, head);
                // 2 burst sites written, the in-loop site removed in the
                // clone.
                let burst: Vec<u64> = plan
                    .writes
                    .iter()
                    .filter(|&&(a, _)| a < head)
                    .map(|&(_, w)| w)
                    .collect();
                assert_eq!(burst, [encode(&NOP_SLOT_M); 2]);
                let trace = plan.trace.as_ref().expect("every plan is a trace");
                assert_eq!(trace.insns[(load_pc + 1 - head) as usize], NOP_SLOT_M);
                assert!(trace.insns.iter().all(|i| !i.is_lfetch()));
            }
            other => panic!("unexpected {other:?}"),
        }
        // Re-considering the same profile does not duplicate the plan.
        assert!(opt.consider(&profile).is_empty());
        assert_eq!(opt.active_deployments(), 1);
    }

    #[test]
    fn adaptive_picks_excl_when_misses_stream() {
        // Memory-band DEAR captures (140 < coherent_min): the loop's loads
        // benefit from prefetching, so Adaptive keeps the prefetches and
        // takes ownership instead.
        let (image, head, back, load_pc) = loop_image();
        let mut opt = Optimizer::new(
            OptimizerConfig {
                warmup_ticks: 0,
                ..Default::default()
            },
            image,
        );
        let profile = hot_profile_lat(load_pc, head, back, 20.0, 140);
        let actions = opt.consider(&profile);
        match &actions[0] {
            PlanAction::Apply(plan) => {
                assert_eq!(plan.kind, OptKind::ExclHint);
                // Every site, burst and clone, keeps its prefetch and takes
                // ownership: 2 burst writes and 1 in-loop site.
                let burst = plan.writes.iter().filter(|&&(a, _)| a < head);
                let burst = burst.map(|&(_, w)| cobra_isa::decode(w).unwrap());
                let trace = plan.trace.as_ref().expect("every plan is a trace");
                let sites: Vec<Insn> = burst
                    .chain(trace.insns.iter().copied().filter(Insn::is_lfetch))
                    .collect();
                assert_eq!(sites.len(), 3);
                for insn in sites {
                    match insn.op {
                        Op::Lfetch { excl, hint, .. } => {
                            assert!(excl);
                            assert_eq!(hint, LfetchHint::Nt1);
                        }
                        other => panic!("{other:?}"),
                    }
                }
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn trace_cache_plan_redirects_head_and_retargets_back_edge() {
        let (image, head, back, load_pc) = loop_image();
        let mut opt = Optimizer::new(
            OptimizerConfig {
                warmup_ticks: 0,
                ..Default::default()
            },
            image.clone(),
        );
        let profile = hot_profile(load_pc, head, back, 1.0);
        let actions = opt.consider(&profile);
        let plan = match &actions[0] {
            PlanAction::Apply(p) => p,
            other => panic!("{other:?}"),
        };
        let trace = plan.trace.as_ref().expect("trace plan");
        assert_eq!(trace.expected_start, cobra_isa::bundle_align(image.len()));
        // The trace's back edge targets the trace head; the exit branch
        // returns after the original back edge.
        let cloned_back = &trace.insns[(back - head) as usize];
        assert_eq!(cloned_back.op.branch_target(), Some(trace.expected_start));
        let exit = trace.insns.last().unwrap();
        assert_eq!(exit.op.branch_target(), Some(back + 1));
        // The in-body lfetch is rewritten in the trace, not in place.
        assert!(trace.insns.iter().all(|i| !i.is_lfetch()));
        // Head redirect present; burst rewritten in place.
        assert!(plan.writes.iter().any(|&(a, w)| a == head
            && cobra_isa::decode(w).unwrap().op.branch_target() == Some(trace.expected_start)));
        let burst_writes = plan.writes.iter().filter(|&&(a, _)| a < head).count();
        assert_eq!(burst_writes, 2);
    }

    #[test]
    fn gates_block_quiet_profiles() {
        let (image, head, back, load_pc) = loop_image();
        let mut opt = Optimizer::new(
            OptimizerConfig {
                warmup_ticks: 0,
                ..Default::default()
            },
            image,
        );
        // Too few samples.
        let mut p = hot_profile(load_pc, head, back, 1.0);
        p.samples = 4;
        assert!(opt.consider(&p).is_empty());
        // Low coherent ratio.
        let mut p = hot_profile(load_pc, head, back, 1.0);
        p.window.bus_coherent = 1;
        assert!(opt.consider(&p).is_empty());
    }

    #[test]
    fn regression_triggers_revert_with_undo_words() {
        let (image, head, back, load_pc) = loop_image();
        let cfg = OptimizerConfig {
            warmup_ticks: 0,
            ..Default::default()
        };
        let mut opt = Optimizer::new(cfg, image.clone());
        let profile = hot_profile(load_pc, head, back, 1.0);
        let actions = opt.consider(&profile);
        let plan_id = match &actions[0] {
            PlanAction::Apply(p) => p.id,
            other => panic!("{other:?}"),
        };
        // Post-deployment profile with much worse CPI.
        let mut worse = SystemProfile::new(LatencyBands { coherent_min: 165 });
        worse.absorb(&ProfileDelta {
            window: CounterWindow {
                instructions: 100_000,
                cycles: 400_000, // CPI 4.0 vs baseline 1.5
                ..CounterWindow::default()
            },
            dear_events: vec![],
            branch_pairs: vec![],
            samples: 50,
        });
        // One consider call per tick; the revert fires once
        // REGRESSION_TICKS post-deployment ticks have been observed.
        let mut actions = opt.consider(&worse);
        for _ in 0..Optimizer::REGRESSION_TICKS {
            if actions
                .iter()
                .any(|a| matches!(a, PlanAction::Revert { .. }))
            {
                break;
            }
            actions = opt.consider(&worse);
        }
        let (id, writes) = match actions.iter().find_map(|a| match a {
            PlanAction::Revert {
                plan_id, writes, ..
            } => Some((*plan_id, writes.clone())),
            _ => None,
        }) {
            Some(x) => x,
            None => panic!("expected a revert, got {actions:?}"),
        };
        assert_eq!(id, plan_id);
        // Undo words restore the original lfetches.
        for (addr, old) in writes {
            assert_eq!(image.word(addr), old, "undo word mismatch at {addr}");
        }
        assert_eq!(opt.active_deployments(), 0);
    }

    /// A loop whose body contains a word that no longer decodes (stale
    /// profile, self-modifying guest, bit rot) must be skipped and
    /// blacklisted — not abort the optimizer.
    #[test]
    fn undecodable_body_word_skips_loop_and_blacklists() {
        let (image, head, back, load_pc) = loop_image();
        // Corrupt the store between the loads: not an lfetch (so site
        // discovery still finds the loop) but decoded when cloning the body.
        let mut words = image.words().to_vec();
        words[(head + 2) as usize] = u64::MAX;
        assert!(cobra_isa::decode(u64::MAX).is_err());
        let corrupt = CodeImage::from_words(words, Default::default());
        let mut opt = Optimizer::new(
            OptimizerConfig {
                warmup_ticks: 0,
                ..Default::default()
            },
            corrupt,
        );
        let profile = hot_profile(load_pc, head, back, 1.0);
        let actions = opt.consider(&profile);
        assert!(
            !actions.iter().any(|a| matches!(a, PlanAction::Apply(_))),
            "no plan may be built from an undecodable body: {actions:?}"
        );
        assert_eq!(observed(&opt).undecodable_loops, 1);
        // Blacklisted: re-considering does not retry (and does not recount).
        assert!(opt.consider(&profile).is_empty());
        assert_eq!(observed(&opt).undecodable_loops, 1);
        assert_eq!(opt.active_deployments(), 0);
    }

    /// A warm-started optimizer deploys a seeded, profile-confirmed
    /// decision after the shortened learning window — strictly earlier than
    /// the cold run — and converges on the same plan.
    #[test]
    fn warm_start_deploys_seeded_decision_earlier() {
        let (image, head, back, load_pc) = loop_image();
        let cfg = OptimizerConfig {
            warmup_ticks: 10,
            ..Default::default()
        };
        let profile = hot_profile(load_pc, head, back, 1.0);
        let first_deploy = |opt: &mut Optimizer| -> Option<(u64, OptKind)> {
            for tick in 1..=20u64 {
                for action in opt.consider(&profile) {
                    if let PlanAction::Apply(plan) = action {
                        return Some((tick, plan.kind));
                    }
                }
            }
            None
        };

        let mut cold = Optimizer::new(cfg, image.clone());
        let (cold_tick, cold_kind) = first_deploy(&mut cold).expect("cold run deploys");
        assert_eq!(cold_tick, 11, "cold run waits out the full warmup");

        let mut warm = Optimizer::new(cfg, image);
        warm.warm_start(&[decided(head, cold_kind)], &[], &[]);
        let (warm_tick, warm_kind) = first_deploy(&mut warm).expect("warm run deploys");
        assert_eq!(warm_kind, cold_kind, "warm run converges on the same plan");
        assert_eq!(warm_tick, Optimizer::WARM_WARMUP_TICKS + 1);
        assert!(
            warm_tick < cold_tick,
            "warm deploy at tick {warm_tick} must beat cold tick {cold_tick}"
        );
        let seen = observed(&warm);
        assert_eq!((seen.warm_hits, seen.warm_mismatches), (1, 0));
    }

    /// A seed the live profile contradicts is dropped: no early deploy, and
    /// after the full warmup the normal path decides from scratch.
    #[test]
    fn warm_mismatch_falls_back_to_cold_path() {
        let (image, head, back, load_pc) = loop_image();
        let cfg = OptimizerConfig {
            warmup_ticks: 12,
            ..Default::default()
        };
        assert!(Optimizer::WARM_WARMUP_TICKS < cfg.warmup_ticks);
        // Live profile says the working set fits → NoPrefetch; seed claims
        // the prior run deployed ExclHint.
        let profile = hot_profile(load_pc, head, back, 1.0);
        let mut opt = Optimizer::new(cfg, image);
        opt.warm_start(&[decided(head, OptKind::ExclHint)], &[], &[]);
        let mut deploys = Vec::new();
        for tick in 1..=20u64 {
            for action in opt.consider(&profile) {
                if let PlanAction::Apply(plan) = action {
                    deploys.push((tick, plan.kind));
                }
            }
        }
        let seen = observed(&opt);
        assert_eq!((seen.warm_hits, seen.warm_mismatches), (0, 1));
        assert_eq!(deploys.len(), 1, "exactly one deployment: {deploys:?}");
        let (tick, kind) = deploys[0];
        assert_eq!(kind, OptKind::NoPrefetch, "live profile wins");
        assert!(
            tick > cfg.warmup_ticks,
            "mismatched seed must not deploy early (tick {tick})"
        );
    }

    /// Seeded blacklist entries (prior reverts) are never re-trialed.
    #[test]
    fn seeded_blacklist_suppresses_deployment() {
        let (image, head, back, load_pc) = loop_image();
        let mut opt = Optimizer::new(
            OptimizerConfig {
                warmup_ticks: 0,
                ..Default::default()
            },
            image,
        );
        opt.warm_start(&[], &[], &[head]);
        let profile = hot_profile(load_pc, head, back, 1.0);
        for _ in 0..8 {
            assert!(opt.consider(&profile).is_empty());
        }
        assert_eq!(opt.active_deployments(), 0);
    }

    /// End-to-end deploy-gate rejection: a loop whose prefetch base register
    /// feeds a real consumer later in the body. The site selector happily
    /// picks the lfetch and `build_plan` emits a noprefetch plan, but
    /// removing the post-incrementing lfetch would starve the consumer —
    /// the verifier must catch it, blacklist the loop, and deploy nothing.
    #[test]
    fn verify_gate_rejects_unsafe_plan_and_blacklists() {
        let mut a = Assembler::new();
        let top = a.new_label();
        a.bind(top);
        let head = a.here();
        let load_pc = a.ldfd(16, 32, 2, 8);
        a.lfetch_nt1(16, 27, 8);
        a.mov(5, 27); // reads the lfetch's base: removal is unsafe
        let back = a.br_ctop(top);
        a.hlt();
        let image = a.finish();
        let mut opt = Optimizer::new(
            OptimizerConfig {
                strategy: Strategy::NoPrefetch,
                warmup_ticks: 0,
                ..Default::default()
            },
            image,
        );
        let profile = hot_profile(load_pc, head, back, 1.0);
        let actions = opt.consider(&profile);
        assert!(
            actions.is_empty(),
            "unsafe plan must not deploy: {actions:?}"
        );
        assert_eq!(observed(&opt).verify_rejects, 1);
        assert_eq!(opt.active_deployments(), 0);
        // Blacklisted: never retried.
        assert!(opt.consider(&profile).is_empty());
        assert_eq!(observed(&opt).verify_rejects, 1);
        // The same loop with `.excl` (no removal) is safe and deploys.
        let mut a = Assembler::new();
        let top = a.new_label();
        a.bind(top);
        let head = a.here();
        let load_pc = a.ldfd(16, 32, 2, 8);
        a.lfetch_nt1(16, 27, 8);
        a.mov(5, 27);
        let back = a.br_ctop(top);
        a.hlt();
        let mut opt = Optimizer::new(
            OptimizerConfig {
                strategy: Strategy::ExclHint,
                warmup_ticks: 0,
                ..Default::default()
            },
            a.finish(),
        );
        let actions = opt.consider(&hot_profile(load_pc, head, back, 1.0));
        assert_eq!(actions.len(), 1);
        assert_eq!(observed(&opt).verify_rejects, 0);
    }

    /// Warm seeds are re-verified against the live image at attach: a head
    /// past the main text (stale/corrupt snapshot) is dropped and counted,
    /// while valid seeds and the normal decision path are unaffected.
    #[test]
    fn warm_seed_with_invalid_head_is_dropped() {
        let (image, head, back, load_pc) = loop_image();
        let mut opt = Optimizer::new(
            OptimizerConfig {
                warmup_ticks: 0,
                ..Default::default()
            },
            image,
        );
        let seeds = [
            decided(9999, OptKind::NoPrefetch),
            decided(head, OptKind::NoPrefetch),
        ];
        opt.warm_start(&seeds, &[], &[]);
        assert_eq!(observed(&opt).verify_rejects, 1);
        // The valid seed still deploys through the normal path.
        let profile = hot_profile(load_pc, head, back, 1.0);
        let actions = opt.consider(&profile);
        assert_eq!(actions.len(), 1);
        assert_eq!(observed(&opt).warm_hits, 1);
        assert_eq!(observed(&opt).verify_rejects, 1);
    }

    /// `verify_plan` is the same check the deploy gate runs; a tampered
    /// write in an otherwise-genuine plan must fail it, and so must a plan
    /// without a trace.
    #[test]
    fn verify_plan_rejects_tampered_plan() {
        let (image, head, back, load_pc) = loop_image();
        let mut opt = Optimizer::new(
            OptimizerConfig {
                warmup_ticks: 0,
                ..Default::default()
            },
            image.clone(),
        );
        let actions = opt.consider(&hot_profile(load_pc, head, back, 1.0));
        let mut plan = match actions.into_iter().next() {
            Some(PlanAction::Apply(p)) => p,
            other => panic!("{other:?}"),
        };
        let window = opt.config().trace.entry_window_slots;
        verify_plan(&image, &plan, window).expect("genuine plan verifies");
        plan.writes[0].1 = encode(&Insn::new(Op::Nop {
            unit: cobra_isa::Unit::I,
        }));
        let err = verify_plan(&image, &plan, window).unwrap_err();
        assert!(err.to_string().contains("violation"));
        // A plan with no clone has nothing for its head to redirect into.
        plan.trace = None;
        let err = verify_plan(&image, &plan, window).unwrap_err();
        assert_eq!(
            err.violations,
            [cobra_verify::Violation::HeadRedirectInvalid { addr: head }]
        );
    }

    /// The candidate generator is deterministic, names are unique, and a
    /// burst+body loop yields enough distinct candidates for a tournament.
    #[test]
    fn candidate_specs_are_distinct_and_deterministic() {
        // 2 burst sites (below head) + 1 body site, like loop_image().
        let sites = vec![0u32, 1, 5];
        let specs = candidate_specs(&sites, 3);
        assert!(specs.len() >= 4, "burst+body loop: {specs:?}");
        for s in &specs {
            assert!(
                s.actions.iter().any(|&a| a != SiteAction::Keep),
                "all-Keep spec survived: {s:?}"
            );
        }
        let mut names: Vec<&str> = specs.iter().map(CandidateSpec::label).collect();
        names.dedup();
        assert_eq!(names.len(), specs.len(), "duplicate names");
        assert_eq!(specs, candidate_specs(&sites, 3), "deterministic");
        // Kinds map from the action mix.
        let by_name = |n: &str| specs.iter().find(|s| s.label() == n).unwrap();
        let kind = |n: &str| plan_kind(&by_name(n).actions);
        assert_eq!(kind("noprefetch"), OptKind::NoPrefetch);
        assert_eq!(kind("prefetch.excl"), OptKind::ExclHint);
        assert_eq!(kind("combined.burst-nop"), OptKind::Combined);
        // A single-site loop collapses to the two uniform rewrites.
        let solo = candidate_specs(&[7], 3);
        assert_eq!(solo.len(), 2, "{solo:?}");
    }

    /// Drive a full tournament: every candidate is deployed for its trial
    /// ticks and reverted; the candidate given the lowest trial CPI is
    /// promoted, and the promoted deployment carries its name and trials.
    #[test]
    fn tournament_promotes_lowest_cpi_candidate() {
        let (image, head, back, load_pc) = loop_image();
        let mut opt = Optimizer::new(
            OptimizerConfig {
                warmup_ticks: 0,
                candidates: true,
                ..Default::default()
            },
            image,
        );
        let favourite = "prefetch.excl.body";
        let mut live: Option<String> = None;
        let mut trial_applies: Vec<String> = Vec::new();
        let mut promoted: Option<PatchPlan> = None;
        for _ in 0..120 {
            // The favourite candidate's trial window shows a low CPI;
            // everything else (including the baseline) runs at 1.5.
            let mut profile = hot_profile(load_pc, head, back, 1.0);
            if live.as_deref() == Some(favourite) {
                profile.window.cycles = 100_000; // CPI 1.0
            }
            for action in opt.consider(&profile) {
                match action {
                    PlanAction::Apply(plan) => {
                        let name = plan.candidate.clone().expect("tournament plan is named");
                        if opt.contests() == 0 {
                            promoted = Some(plan);
                        } else {
                            trial_applies.push(name.clone());
                            live = Some(name);
                        }
                    }
                    PlanAction::Revert { loop_head, .. } => {
                        assert_eq!(loop_head, head, "revert names its loop");
                        live = None;
                    }
                }
            }
        }
        let promoted = promoted.expect("tournament promotes a winner");
        assert_eq!(promoted.candidate.as_deref(), Some(favourite));
        assert_eq!(promoted.kind, OptKind::ExclHint);
        assert!(
            trial_applies.len() >= 3,
            "at least 3 distinct candidates trialed: {trial_applies:?}"
        );
        assert_eq!(
            observed(&opt).candidates_trialed,
            trial_applies.len() as u64
        );
        assert_eq!(observed(&opt).tournaments_promoted, 1);
        assert_eq!(opt.active_deployments(), 1);
        let (decisions, winners, _) = opt.export_state();
        assert_eq!((decisions.len(), winners.len()), (1, 1));
        assert_eq!(winners[0].candidate, favourite);
        assert_eq!(
            winners[0].trials.len(),
            trial_applies.len(),
            "every closed trial is exported"
        );
    }

    /// When even the best candidate regresses past the revert threshold the
    /// tournament blacklists the loop instead of promoting.
    #[test]
    fn tournament_blacklists_when_every_candidate_regresses() {
        let (image, head, back, load_pc) = loop_image();
        let mut opt = Optimizer::new(
            OptimizerConfig {
                warmup_ticks: 0,
                candidates: true,
                ..Default::default()
            },
            image,
        );
        let mut in_trial = false;
        for _ in 0..120 {
            let mut profile = hot_profile(load_pc, head, back, 1.0);
            if in_trial {
                profile.window.cycles = 1_000_000; // CPI 10.0: hopeless
            }
            for action in opt.consider(&profile) {
                match action {
                    PlanAction::Apply(_) => in_trial = true,
                    PlanAction::Revert { .. } => in_trial = false,
                }
            }
        }
        assert!(observed(&opt).candidates_trialed >= 3);
        assert_eq!(observed(&opt).tournaments_promoted, 0);
        assert_eq!(opt.active_deployments(), 0, "nothing stays deployed");
        // Blacklisted: no new tournament, no deployment, ever.
        assert!(opt
            .consider(&hot_profile(load_pc, head, back, 1.0))
            .is_empty());
        assert_eq!(opt.contests(), 0);
        assert!(matches!(
            opt.state(head),
            Some(LoopState::Blacklisted(None))
        ));
    }

    /// A loop that only yields two distinct candidates skips the tournament
    /// and deploys through the classic one-shot path.
    #[test]
    fn single_site_loop_falls_back_to_classic_path() {
        let mut a = Assembler::new();
        let top = a.new_label();
        a.bind(top);
        let head = a.here();
        let load_pc = a.ldfd(16, 32, 2, 8);
        a.lfetch_nt1(16, 27, 8);
        a.stfd(23, 46, 4, 8);
        let back = a.br_ctop(top);
        a.hlt();
        let mut opt = Optimizer::new(
            OptimizerConfig {
                warmup_ticks: 0,
                candidates: true,
                ..Default::default()
            },
            a.finish(),
        );
        let actions = opt.consider(&hot_profile(load_pc, head, back, 1.0));
        assert_eq!(actions.len(), 1);
        match &actions[0] {
            PlanAction::Apply(plan) => {
                assert_eq!(plan.candidate, None, "classic path: unnamed plan");
                assert_eq!(plan.kind, OptKind::NoPrefetch);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(observed(&opt).candidates_trialed, 0);
        assert!(matches!(opt.state(head), Some(LoopState::Deployed(_))));
    }

    /// poison() aborts an in-flight tournament and permanently blacklists
    /// the loop (the framework calls it when a guest-side patch fails).
    #[test]
    fn poison_aborts_tournament_and_blacklists_loop() {
        let (image, head, back, load_pc) = loop_image();
        let mut opt = Optimizer::new(
            OptimizerConfig {
                warmup_ticks: 0,
                candidates: true,
                ..Default::default()
            },
            image,
        );
        let profile = hot_profile(load_pc, head, back, 1.0);
        opt.consider(&profile); // creates the tournament
        opt.consider(&profile); // deploys the first candidate
        assert!(
            matches!(opt.state(head), Some(LoopState::Contest(t)) if t.live.is_some()),
            "a trial is in flight"
        );
        opt.poison(head);
        for _ in 0..20 {
            assert!(
                opt.consider(&profile).is_empty(),
                "poisoned loop must stay untouched"
            );
        }
        assert_eq!(opt.contests(), 0, "contest dropped");
        assert_eq!(observed(&opt).tournaments_promoted, 0);
        assert_eq!(opt.active_deployments(), 0);
    }

    /// A warm-started winner deploys directly — no trials, no tournament.
    #[test]
    fn warm_winner_resumes_without_retrialing() {
        let (image, head, back, load_pc) = loop_image();
        let mut opt = Optimizer::new(
            OptimizerConfig {
                warmup_ticks: 0,
                candidates: true,
                ..Default::default()
            },
            image,
        );
        let winner = won(head, "combined.burst-nop", OptKind::Combined);
        opt.warm_start(&[], &[winner], &[]);
        let actions = opt.consider(&hot_profile(load_pc, head, back, 1.0));
        assert_eq!(actions.len(), 1);
        match &actions[0] {
            PlanAction::Apply(plan) => {
                assert_eq!(plan.candidate.as_deref(), Some("combined.burst-nop"));
                assert_eq!(plan.kind, OptKind::Combined);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(observed(&opt).candidates_trialed, 0, "no re-trialing");
        assert_eq!(opt.contests(), 0);
        assert_eq!(observed(&opt).warm_hits, 1);
        assert_eq!(opt.active_deployments(), 1);
    }

    fn worse_profile() -> SystemProfile {
        let mut worse = SystemProfile::new(LatencyBands { coherent_min: 165 });
        worse.absorb(&ProfileDelta {
            window: CounterWindow {
                instructions: 100_000,
                cycles: 400_000, // CPI 4.0 against a baseline of 1.5
                ..CounterWindow::default()
            },
            samples: 50,
            ..ProfileDelta::default()
        });
        worse
    }

    fn categories(opt: &mut Optimizer) -> Vec<&'static str> {
        opt.drain_events().map(|e| e.category()).collect()
    }

    /// One loop through every state — seeded, contested, deployed, taken
    /// back — with what the outside can see checked at each step: the
    /// exported decisions and blacklist, the active count, and the events.
    #[test]
    fn one_loop_walks_the_whole_lifecycle() {
        let (image, head, back, load_pc) = loop_image();
        let mut opt = Optimizer::new(
            OptimizerConfig {
                warmup_ticks: 0,
                candidates: true,
                ..Default::default()
            },
            image.clone(),
        );
        let nothing_exported = (Vec::new(), Vec::new(), Vec::new());
        assert!(opt.state(head).is_none(), "an unknown loop has no record");

        // Seeded: known from a prior run, nothing decided, nothing to export.
        opt.warm_start(&[decided(head, OptKind::NoPrefetch)], &[], &[]);
        assert!(matches!(
            opt.state(head),
            Some(LoopState::Seeded {
                kind: Some(OptKind::NoPrefetch),
                winner: None
            })
        ));
        assert_eq!(opt.export_state(), nothing_exported);
        assert!(categories(&mut opt).is_empty());

        // Contest: the loop turns hot and has more than one candidate. The
        // seed is consumed; a kind names no candidate, so it is neither a
        // hit nor a mismatch (no `warm_verdict` among the events).
        let profile = hot_profile(load_pc, head, back, 1.0);
        assert!(opt.consider(&profile).is_empty());
        assert!(matches!(opt.state(head), Some(LoopState::Contest(_))));
        assert_eq!(opt.loops.len(), 1, "the record was replaced, not added to");
        assert_eq!(categories(&mut opt), ["loop_classified"]);

        // Trials: apply, TRIAL_TICKS ticks, revert on the last of them —
        // nothing is exported or counted as deployed while the contest runs.
        let (mut trials, mut quiet) = (0, 0);
        let promoted = loop {
            let actions = opt.consider(&profile);
            if opt.contests() == 0 {
                break actions;
            }
            match actions.as_slice() {
                [PlanAction::Apply(_)] => {
                    assert_eq!(quiet, 0, "a trial starts after the last one closed");
                    assert!(categories(&mut opt).is_empty());
                }
                [] => {
                    quiet += 1;
                    assert!(categories(&mut opt).is_empty());
                }
                [PlanAction::Revert { .. }] => {
                    assert_eq!(quiet + 1, Optimizer::TRIAL_TICKS);
                    quiet = 0;
                    trials += 1;
                    assert_eq!(categories(&mut opt), ["candidate_trial"]);
                }
                other => panic!("one action or none per tick: {other:?}"),
            }
            assert_eq!(opt.export_state(), nothing_exported);
            assert_eq!(opt.active_deployments(), 0);
        };
        assert!(trials >= 3);

        // Deployed: the winner is promoted and exported as a live decision.
        assert!(matches!(promoted.as_slice(), [PlanAction::Apply(_)]));
        assert_eq!(categories(&mut opt), ["tournament"]);
        assert!(matches!(opt.state(head), Some(LoopState::Deployed(_))));
        assert_eq!(opt.active_deployments(), 1);
        let (decisions, winners, blacklist) = opt.export_state();
        assert_eq!((decisions.len(), winners.len(), blacklist.len()), (1, 1, 0));
        assert_eq!((decisions[0].loop_head, winners[0].loop_head), (head, head));
        assert!(!decisions[0].reverted);
        assert_eq!(winners[0].trials.len(), trials);
        assert_eq!(decisions[0].post_cpi, None);

        // Blacklisted: the deployment regresses and is taken back; the
        // decision is still exported, now as reverted.
        let worse = worse_profile();
        let revert = loop {
            let actions = opt.consider(&worse);
            if !actions.is_empty() {
                break actions;
            }
            assert!(categories(&mut opt).is_empty());
        };
        assert!(matches!(
            revert.as_slice(),
            [PlanAction::Revert { loop_head, writes, .. }]
                if *loop_head == head && writes.iter().all(|&(a, w)| image.word(a) == w)
        ));
        assert_eq!(categories(&mut opt), ["cpi_trial", "blacklist"]);
        assert!(matches!(
            opt.state(head),
            Some(LoopState::Blacklisted(Some(_)))
        ));
        assert_eq!(opt.active_deployments(), 0);
        let (decisions, winners, blacklist) = opt.export_state();
        assert_eq!(blacklist, [head]);
        assert_eq!(decisions.len(), 1);
        assert!(decisions[0].reverted);
        assert_eq!(decisions[0].post_cpi, Some(4.0));
        assert!(winners.is_empty(), "a reverted winner is not resumed");

        // And there it stays.
        for _ in 0..5 {
            assert!(opt.consider(&profile).is_empty());
        }
        assert!(categories(&mut opt).is_empty());
        assert_eq!(opt.loops.len(), 1);
    }

    /// A head a store hands over as both a decision and a blacklist entry
    /// has one record, `Blacklisted`, and is never offered as a candidate.
    #[test]
    fn seeded_and_blacklisted_head_is_blacklisted_once() {
        let (image, head, back, load_pc) = loop_image();
        let mut opt = Optimizer::new(
            OptimizerConfig {
                warmup_ticks: 0,
                candidates: true,
                ..Default::default()
            },
            image,
        );
        let seeded = opt.warm_start(
            &[decided(head, OptKind::NoPrefetch)],
            &[won(head, "noprefetch", OptKind::NoPrefetch)],
            &[head],
        );
        assert_eq!(seeded, (1, 0, 1), "the blacklist drops the winner");
        assert_eq!(opt.loops.len(), 1);
        assert!(matches!(
            opt.state(head),
            Some(LoopState::Blacklisted(None))
        ));
        let profile = hot_profile(load_pc, head, back, 1.0);
        for _ in 0..8 {
            assert!(opt.consider(&profile).is_empty());
        }
        assert!(
            categories(&mut opt).is_empty(),
            "not even classified: the loop is never a candidate"
        );
        assert_eq!(opt.export_state(), (Vec::new(), Vec::new(), vec![head]));
    }

    /// `poison` is one transition whatever it interrupts: a live trial
    /// leaves no decision behind, a deployment is exported as reverted.
    #[test]
    fn poison_is_one_transition_from_any_state() {
        let (image, head, back, load_pc) = loop_image();
        let profile = hot_profile(load_pc, head, back, 1.0);
        let cfg = OptimizerConfig {
            warmup_ticks: 0,
            ..Default::default()
        };

        let with_candidates = OptimizerConfig {
            candidates: true,
            ..cfg
        };
        let mut opt = Optimizer::new(with_candidates, image.clone());
        opt.consider(&profile);
        let trial = opt.consider(&profile);
        assert!(matches!(trial.as_slice(), [PlanAction::Apply(_)]));
        opt.drain_events().for_each(drop);
        opt.poison(head);
        assert_eq!(categories(&mut opt), ["blacklist"]);
        assert_eq!(opt.loops.len(), 1);
        assert!(matches!(
            opt.state(head),
            Some(LoopState::Blacklisted(None))
        ));
        assert_eq!(opt.export_state(), (Vec::new(), Vec::new(), vec![head]));

        let mut opt = Optimizer::new(cfg, image);
        let deploy = opt.consider(&profile);
        assert!(matches!(deploy.as_slice(), [PlanAction::Apply(_)]));
        assert_eq!(opt.active_deployments(), 1);
        opt.poison(head);
        opt.poison(head); // a second failure on the same loop changes nothing
        assert_eq!(opt.loops.len(), 1);
        assert_eq!(opt.active_deployments(), 0);
        let (decisions, _, blacklist) = opt.export_state();
        assert_eq!(blacklist, [head]);
        assert_eq!(decisions.len(), 1);
        assert!(decisions[0].reverted);
        assert_eq!(decisions[0].kind, "noprefetch");

        // A loop nothing was known about can be poisoned too.
        opt.poison(9999);
        assert_eq!(opt.export_state().2, [head, 9999]);
    }

    /// A candidate set of one is promoted at once: there is nothing to
    /// compare it with, so no trial and no tournament outcome — for the
    /// classifier's pick, for a warm-started winner, and with `candidates`
    /// on for a loop too small to contest.
    #[test]
    fn set_of_one_deploys_without_a_contest() {
        let (image, head, back, load_pc) = loop_image();
        let profile = hot_profile(load_pc, head, back, 1.0);
        let cfg = OptimizerConfig {
            warmup_ticks: 0,
            ..Default::default()
        };
        let with_candidates = OptimizerConfig {
            candidates: true,
            ..cfg
        };
        let winner = won(head, "noprefetch.body", OptKind::NoPrefetch);
        let arms = [
            (cfg, None, None),
            (
                OptimizerConfig {
                    strategy: Strategy::ExclHint,
                    ..cfg
                },
                None,
                None,
            ),
            (with_candidates, Some(winner), Some("noprefetch.body")),
        ];
        for (cfg, seed, candidate) in arms {
            let mut opt = Optimizer::new(cfg, image.clone());
            if let Some(winner) = seed {
                opt.warm_start(&[], &[winner], &[]);
            }
            let mut applied = Vec::new();
            for _ in 0..10 {
                for action in opt.consider(&profile) {
                    match action {
                        PlanAction::Apply(plan) => applied.push(plan.candidate),
                        PlanAction::Revert { .. } => panic!("nothing was trialled"),
                    }
                }
            }
            assert_eq!(applied, [candidate.map(String::from)]);
            let mut seen = vec!["loop_classified"];
            if candidate.is_some() {
                seen.push("warm_verdict"); // the stored winner, resumed: a hit
            }
            assert_eq!(categories(&mut opt), seen);
            assert_eq!(opt.active_deployments(), 1);
        }
    }

    /// A reverted decision blacklists its loop instead of seeding it, the
    /// blacklist is counted once per head, and a kind this build does not
    /// name seeds nothing.
    #[test]
    fn reverted_and_unknown_decisions_seed_no_deployment() {
        let (image, head, back, load_pc) = loop_image();
        let mut opt = Optimizer::new(
            OptimizerConfig {
                warmup_ticks: 0,
                ..Default::default()
            },
            image,
        );
        let reverted = DecisionRecord {
            reverted: true,
            ..decided(head, OptKind::NoPrefetch)
        };
        let unknown = DecisionRecord {
            kind: "prefetch.nta".into(),
            ..decided(head + 1, OptKind::NoPrefetch)
        };
        let seeded = opt.warm_start(&[reverted, unknown], &[], &[9999, head]);
        assert_eq!(seeded, (0, 0, 2));
        assert!(matches!(
            opt.state(head),
            Some(LoopState::Blacklisted(None))
        ));
        assert!(opt.state(head + 1).is_none(), "an unknown kind is dropped");
        for _ in 0..8 {
            assert!(opt
                .consider(&hot_profile(load_pc, head, back, 1.0))
                .is_empty());
        }
        assert_eq!(opt.export_state().2, [head, 9999]);
    }

    /// A surviving tournament winner is stored as a decision *and* a winner
    /// at the same head; when that head no longer heads a loop in the live
    /// image it is verified, rejected and counted once, and neither seed
    /// survives.
    #[test]
    fn stale_winner_head_is_rejected_once() {
        // Straight-line text: nothing branches back to address 0.
        let image = {
            let mut a = Assembler::new();
            a.addi(5, 5, 1);
            a.hlt();
            a.finish()
        };
        let mut opt = Optimizer::new(OptimizerConfig::default(), image);
        let seeded = opt.warm_start(
            &[decided(0, OptKind::Combined)],
            &[won(0, "combined.split", OptKind::Combined)],
            &[],
        );
        assert_eq!(seeded, (1, 1, 0));
        assert_eq!(categories(&mut opt), ["verify_reject"]);
        assert!(opt.loops.is_empty());
    }

    /// What a run exports is what the next one warms from: a standing winner
    /// resumes, a classifier pick exports no winner, and a loop reverted
    /// after winning its tournament comes back blacklisted.
    #[test]
    fn exported_records_warm_the_next_run() {
        let (image, head, back, load_pc) = loop_image();
        let profile = hot_profile(load_pc, head, back, 1.0);
        let cfg = OptimizerConfig {
            warmup_ticks: 0,
            ..Default::default()
        };
        let mut classic = Optimizer::new(cfg, image.clone());
        assert_eq!(classic.consider(&profile).len(), 1);
        let (decisions, winners, blacklist) = classic.export_state();
        assert_eq!((decisions.len(), winners.len()), (1, 0));
        assert!(blacklist.is_empty());

        let with_candidates = OptimizerConfig {
            candidates: true,
            ..cfg
        };
        let mut cold = Optimizer::new(with_candidates, image.clone());
        cold.warm_start(
            &[],
            &[won(head, "noprefetch.body", OptKind::NoPrefetch)],
            &[],
        );
        assert_eq!(cold.consider(&profile).len(), 1);
        let (decisions, winners, blacklist) = cold.export_state();
        assert_eq!(winners, [won(head, "noprefetch.body", OptKind::NoPrefetch)]);
        let mut warm = Optimizer::new(with_candidates, image.clone());
        assert_eq!(warm.warm_start(&decisions, &winners, &blacklist), (1, 1, 0));
        let resumed = warm.consider(&profile);
        assert!(matches!(
            resumed.as_slice(),
            [PlanAction::Apply(plan)] if plan.candidate.as_deref() == Some("noprefetch.body")
        ));

        cold.poison(head);
        let (decisions, winners, blacklist) = cold.export_state();
        assert!(decisions[0].reverted && winners.is_empty());
        let mut warm = Optimizer::new(with_candidates, image);
        assert_eq!(warm.warm_start(&decisions, &winners, &blacklist), (0, 0, 1));
        assert!(warm.consider(&profile).is_empty());
    }
}
