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

use std::collections::{HashMap, HashSet};

use cobra_isa::insn::{Insn, Op};
use cobra_isa::{encode, CodeAddr, CodeImage, NOP_SLOT_M};
use serde::{Deserialize, Serialize};

use crate::profile::{CounterWindow, SystemProfile};
use crate::telemetry::TelemetryEvent;
use crate::trace::{
    loop_lfetch_sites, loops_with_delinquent_loads, select_loops, HotLoop, TraceConfig,
};

/// Which rewrite a deployment applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum OptKind {
    NoPrefetch,
    ExclHint,
    /// Per-site mix of the two (tournament candidates only: the classic
    /// one-shot classifier never emits this).
    Combined,
}

impl OptKind {
    pub const ALL: [OptKind; 3] = [OptKind::NoPrefetch, OptKind::ExclHint, OptKind::Combined];

    pub fn name(self) -> &'static str {
        match self {
            OptKind::NoPrefetch => "noprefetch",
            OptKind::ExclHint => "prefetch.excl",
            OptKind::Combined => "combined",
        }
    }

    /// Inverse of [`OptKind::name`]; `None` for unknown names (e.g. a store
    /// record written by an incompatible build).
    pub fn from_name(name: &str) -> Option<OptKind> {
        OptKind::ALL.into_iter().find(|k| k.name() == name)
    }
}

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

/// How rewrites reach the running binary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DeployMode {
    /// Patch the original text in place (word-granular).
    InPlace,
    /// Clone the loop into the trace cache, rewrite the clone, and redirect
    /// the original loop head (the ADORE-style deployment of §1/§3).
    TraceCache,
}

/// Optimizer thresholds.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct OptimizerConfig {
    pub strategy: Strategy,
    pub deploy: DeployMode,
    pub trace: TraceConfig,
    /// Minimum DEAR captures at one PC before it counts as delinquent.
    pub min_dear_samples: u64,
    /// Minimum fraction of a site's qualifying misses in the coherent band.
    pub min_coherent_fraction: f64,
    /// Minimum system-wide coherent-bus ratio before optimizing at all.
    pub min_coherent_ratio: f64,
    /// The §5.2 filter: noprefetch targets "instructions that cause
    /// frequent L3 misses **when [the] L2 miss ratio is low**" — a low L2
    /// miss rate means the working set fits L2, so remaining misses are
    /// coherence, not capacity. At or above this L2-misses-per-kilo-
    /// instruction rate the code is streaming and prefetches stay.
    pub l2_kinst_threshold: f64,
    /// §5.2: "noprefetch … needs precise runtime profiles to avoid removing
    /// effective prefetches". A loop whose in-loop DEAR captures are more
    /// than this fraction *memory-band* keeps its prefetches: the fixed
    /// NoPrefetch strategy skips it; Adaptive falls back to `.excl`.
    pub max_memory_fraction: f64,
    /// Minimum merged samples before the first decision.
    pub min_profile_samples: u64,
    /// §4's counter-only path: when the system-wide coherent ratio is at
    /// least this intense, optimize the hottest prefetching loops even if
    /// the DEAR pinpointed no individual load (store-upgrade-dominated
    /// pathologies never latch the DEAR, which samples loads).
    pub fallback_coherent_ratio: f64,
    /// At most this many loops optimized through the counter-only path.
    pub fallback_max_loops: usize,
    /// Deployments per quantum tick: deploying incrementally lets the
    /// CPI-regression feedback assign blame to individual deployments.
    pub max_deploys_per_tick: usize,
    /// Revert a deployment whose post-deployment CPI exceeds the
    /// pre-deployment CPI by this factor (`<= 0` disables reverting).
    /// Trial-and-revert is the framework's answer to pathologies no ex-ante
    /// profile signal can distinguish — e.g. loops whose prefetches hide
    /// *true-sharing* coherent misses look identical, before patching, to
    /// loops whose prefetches *cause* coherent misses. Reverted loops are
    /// blacklisted, so each loop is trialled at most once.
    pub regression_factor: f64,
    /// Quantum ticks to observe after a deployment before judging
    /// regression (should exceed `rolling_ticks` so the rolling window is
    /// fully post-deployment).
    pub regression_ticks: u64,
    /// Ticks of history in the rolling decision profile.
    pub rolling_ticks: usize,
    /// Quantum ticks observed before the first deployment is allowed —
    /// lets the program's cold start age out of the rolling profile so
    /// decisions reflect steady-state behaviour.
    pub warmup_ticks: u64,
    /// Shortened learning window used when the optimizer was warm-started
    /// from a store snapshot: *seeded* loops (deployed and validated in a
    /// prior run) may deploy after this many ticks; unseeded loops still
    /// wait out the full `warmup_ticks`, so a warm run converges to the
    /// same final deployment set as a cold one, just earlier.
    #[serde(default = "default_warm_warmup_ticks")]
    pub warm_warmup_ticks: u64,
    /// Run the multi-version candidate tournament instead of the one-shot
    /// classifier deployment: generate per-`lfetch` subset/mix candidates
    /// for each eligible hot loop, trial each for `trial_ticks`, revert,
    /// and promote the lowest-CPI candidate. Off by default — the classic
    /// two-rewrite pipeline stays byte-identical with it off.
    #[serde(default)]
    pub candidates: bool,
    /// Quantum ticks each tournament candidate stays deployed before its
    /// trial CPI is read. Trials measure against exact per-tick counter
    /// sums (see [`Optimizer::observe_tick_window`]), so short windows stay
    /// accurate; longer windows average out scheduling noise at the cost of
    /// a longer tournament.
    #[serde(default = "default_trial_ticks")]
    pub trial_ticks: u64,
    /// On-stack replacement: arm verified per-branch redirects when a trace
    /// version deploys (and the reverse map when it reverts), so threads
    /// already inside the loop migrate at their next back edge instead of
    /// running the stale version to natural completion. Maps are proven
    /// total and type-correct by `cobra-verify::check_osr_map` before
    /// arming; an unprovable map degrades to entry-only transfer (counted
    /// in `osr_rejects`), never blocks the deployment. On by default;
    /// `CobraBuilder::osr(false)` pins entry-only transfer for A/B runs.
    pub osr: bool,
}

fn default_warm_warmup_ticks() -> u64 {
    6
}

fn default_trial_ticks() -> u64 {
    4
}

impl Default for OptimizerConfig {
    fn default() -> Self {
        OptimizerConfig {
            strategy: Strategy::Adaptive,
            deploy: DeployMode::TraceCache,
            trace: TraceConfig::default(),
            min_dear_samples: 3,
            min_coherent_fraction: 0.5,
            min_coherent_ratio: 0.05,
            l2_kinst_threshold: 10.5,
            max_memory_fraction: 0.4,
            min_profile_samples: 32,
            fallback_coherent_ratio: 0.25,
            fallback_max_loops: 4,
            max_deploys_per_tick: 1,
            regression_factor: 1.4,
            // Multi-pass programs alternate CPI regimes tick by tick; the
            // rolling window and the regression horizon must span a whole
            // pass cycle so pre/post comparisons see the same mix.
            regression_ticks: 20,
            rolling_ticks: 16,
            warmup_ticks: 18,
            warm_warmup_ticks: default_warm_warmup_ticks(),
            candidates: false,
            trial_ticks: default_trial_ticks(),
            osr: true,
        }
    }
}

/// One planned deployment (or revert), handed from the optimization stage
/// to the framework for application at a safe point.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum PlanAction {
    Apply(PatchPlan),
    /// Undo a previous deployment by restoring the overwritten words.
    Revert {
        plan_id: u64,
        /// Head of the loop being restored — lets the framework poison it
        /// if a restore write fails.
        #[serde(default)]
        loop_head: CodeAddr,
        writes: Vec<(CodeAddr, u64)>,
        reason: String,
    },
}

/// A concrete binary rewrite.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PatchPlan {
    pub id: u64,
    pub kind: OptKind,
    pub loop_head: CodeAddr,
    /// Back-edge address of the loop the plan claims to optimize; the
    /// verifier bounds every patch site by `[head - entry window, back_edge]`.
    #[serde(default)]
    pub back_edge: CodeAddr,
    pub description: String,
    /// Tournament candidate spec name when this plan is a candidate trial
    /// or a promoted/warm-resumed winner (`None` for classic one-shot
    /// deployments).
    #[serde(default)]
    pub candidate: Option<String>,
    /// Words to write into the existing image, `(addr, new_word)`.
    pub writes: Vec<(CodeAddr, u64)>,
    /// Optimized trace to append first (TraceCache mode).
    pub trace: Option<TracePlan>,
}

/// An optimized loop body for the trace cache.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TracePlan {
    /// Where the trace must land (both sides compute `bundle_align(len)` on
    /// identical images; the apply step asserts agreement).
    pub expected_start: CodeAddr,
    pub insns: Vec<Insn>,
}

impl From<OptKind> for cobra_verify::RewriteKind {
    fn from(kind: OptKind) -> Self {
        match kind {
            OptKind::NoPrefetch => cobra_verify::RewriteKind::NoPrefetch,
            OptKind::ExclHint => cobra_verify::RewriteKind::ExclHint,
            OptKind::Combined => cobra_verify::RewriteKind::Combined,
        }
    }
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
    let trace = plan.trace.as_ref().map(|t| cobra_verify::TraceCheck {
        expected_start: t.expected_start,
        insns: &t.insns,
    });
    cobra_verify::check_plan(
        image,
        &cobra_verify::PlanCheck {
            kind: plan.kind.into(),
            loop_head: plan.loop_head,
            back_edge: plan.back_edge,
            region_start: plan.loop_head.saturating_sub(entry_window_slots),
            writes: &plan.writes,
            trace,
        },
    )
}

#[derive(Debug)]
struct Deployment {
    plan_id: u64,
    loop_head: CodeAddr,
    kind: OptKind,
    /// Tournament candidate spec that produced this deployment (`None`
    /// for classic one-shot deployments).
    candidate: Option<String>,
    /// `(candidate, trial CPI)` pairs from the tournament that promoted
    /// this deployment (empty for classic or warm-resumed deployments).
    trials: Vec<(String, f64)>,
    /// `(addr, old_word)` for revert.
    undo: Vec<(CodeAddr, u64)>,
    baseline_cpi: f64,
    /// CPI of the most recent completed trial window (`None` until one
    /// closes — never a `0.0` sentinel).
    last_post_cpi: Option<f64>,
    post_ticks: u64,
    reverted: bool,
}

/// Prior-run knowledge used to warm-start an optimizer (decoded from a
/// `cobra-store` snapshot by the framework).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WarmSeed {
    /// Loops deployed (and not reverted) in a prior run, with the rewrite
    /// that stuck.
    pub decisions: Vec<(CodeAddr, OptKind)>,
    /// Loops whose deployments regressed in a prior run: skipped outright.
    pub blacklist: Vec<CodeAddr>,
    /// Tournament winners from a prior run: with candidates enabled, a
    /// warm run deploys the named candidate directly instead of
    /// re-running the tournament.
    pub winners: Vec<(CodeAddr, String)>,
}

/// One loop's final decision, exported at detach for persistence.
#[derive(Debug, Clone, PartialEq)]
pub struct DecisionExport {
    pub loop_head: CodeAddr,
    pub kind: OptKind,
    pub reverted: bool,
    pub baseline_cpi: f64,
    /// Last completed trial-window CPI (`None` when no window closed).
    pub post_cpi: Option<f64>,
    /// Winning tournament candidate, when this decision came from one.
    pub candidate: Option<String>,
    /// Per-candidate trial CPIs of the tournament that picked this
    /// decision, in trial order.
    pub trials: Vec<(String, f64)>,
}

/// Per-`lfetch`-site action in a tournament candidate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SiteAction {
    /// Leave the site as compiled.
    Keep,
    /// Rewrite to `nop.m` (remove the prefetch).
    Nop,
    /// Flip to `lfetch.excl`.
    Excl,
}

/// One tournament candidate: a named per-site action vector over the
/// loop's `lfetch` sites (in `sites` order — burst sites first).
#[derive(Debug, Clone, PartialEq)]
struct CandidateSpec {
    name: &'static str,
    actions: Vec<SiteAction>,
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
    let n = sites.len();
    let body = |a: &CodeAddr| *a >= head;
    let uniform = |act: SiteAction| vec![act; n];
    let split_at = n.div_ceil(2);
    let raw = [
        ("noprefetch", uniform(SiteAction::Nop)),
        ("prefetch.excl", uniform(SiteAction::Excl)),
        (
            "noprefetch.body",
            sites
                .iter()
                .map(|a| {
                    if body(a) {
                        SiteAction::Nop
                    } else {
                        SiteAction::Keep
                    }
                })
                .collect(),
        ),
        (
            "prefetch.excl.body",
            sites
                .iter()
                .map(|a| {
                    if body(a) {
                        SiteAction::Excl
                    } else {
                        SiteAction::Keep
                    }
                })
                .collect(),
        ),
        (
            "combined.burst-nop",
            sites
                .iter()
                .map(|a| {
                    if body(a) {
                        SiteAction::Excl
                    } else {
                        SiteAction::Nop
                    }
                })
                .collect(),
        ),
        (
            "combined.split",
            (0..n)
                .map(|i| {
                    if i < split_at {
                        SiteAction::Nop
                    } else {
                        SiteAction::Excl
                    }
                })
                .collect(),
        ),
    ];
    let mut out: Vec<CandidateSpec> = Vec::with_capacity(raw.len());
    for (name, actions) in raw {
        if actions.iter().all(|&a| a == SiteAction::Keep) {
            continue;
        }
        if out.iter().any(|s| s.actions == actions) {
            continue;
        }
        out.push(CandidateSpec { name, actions });
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

/// One loop's candidate tournament: trial each spec for `trial_ticks`,
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
    /// Aborted (poisoned) — dropped at the next pump without promotion.
    poisoned: bool,
}

/// Running totals of the two outcomes no event carries; `CobraReport` has
/// them under the same names. Everything else the optimizer does is counted
/// from its events (`CobraReport::observe`).
#[derive(Debug, Clone, Copy, Default)]
pub struct OptimizerCounters {
    /// Seeded deployments whose live classification agreed.
    pub warm_hits: u64,
    /// Seeded decisions dropped because the live profile disagreed.
    pub warm_mismatches: u64,
}

/// The optimization stage's decision state: decisions, plan construction,
/// and its own synchronized copy of the program image.
#[derive(Debug)]
pub struct Optimizer {
    cfg: OptimizerConfig,
    image: CodeImage,
    optimized_heads: HashSet<CodeAddr>,
    /// Loops whose deployments regressed: never touched again (phase
    /// changes clear `optimized_heads` but not this).
    blacklisted_heads: HashSet<CodeAddr>,
    deployments: Vec<Deployment>,
    next_plan_id: u64,
    ticks_seen: u64,
    /// Seeded decisions from a warm start, pending live validation.
    seeded: HashMap<CodeAddr, OptKind>,
    /// Seeded tournament winners from a warm start (candidate name per
    /// loop head): deployed directly, skipping the tournament.
    seeded_winners: HashMap<CodeAddr, String>,
    /// In-flight candidate tournaments.
    tournaments: Vec<Tournament>,
    counters: OptimizerCounters,
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
    /// This tick's merged counter deltas (set by
    /// [`Optimizer::observe_tick_window`]; cleared after each
    /// [`Optimizer::consider`]). Candidate trials sum these for exact
    /// per-trial CPI; `None` falls back to the rolling window.
    tick_window: Option<CounterWindow>,
}

impl Optimizer {
    /// `image` is the program text at attach time (the optimizer keeps it in
    /// sync with the machine's copy by applying its own plans).
    pub fn new(cfg: OptimizerConfig, image: CodeImage) -> Self {
        Optimizer {
            cfg,
            image,
            optimized_heads: HashSet::new(),
            blacklisted_heads: HashSet::new(),
            deployments: Vec::new(),
            next_plan_id: 0,
            ticks_seen: 0,
            seeded: HashMap::new(),
            seeded_winners: HashMap::new(),
            tournaments: Vec::new(),
            counters: OptimizerCounters::default(),
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

    /// Stamp subsequent decisions with the tick/cycle they belong to.
    pub fn begin_tick(&mut self, tick: u64, cycle: u64) {
        self.cur_tick = tick;
        self.cur_cycle = cycle;
    }

    /// Hand this tick's merged counter deltas to the optimizer (exactly the
    /// window the phase detector sees). Candidate trials accumulate these
    /// so a trial's CPI covers precisely its own ticks, independent of the
    /// rolling-window length. Consumed by the next [`Optimizer::consider`].
    pub fn observe_tick_window(&mut self, window: &CounterWindow) {
        self.tick_window = Some(*window);
    }

    /// Seed the optimizer with prior-run knowledge (call before the first
    /// tick). Blacklisted loops are skipped outright; seeded decisions
    /// shorten the learning window to `warm_warmup_ticks`, but each one is
    /// still **validated against the live profile** before deploying — a
    /// mismatch drops the seed and the loop falls back to the normal
    /// post-`warmup_ticks` decision path.
    pub fn warm_start(&mut self, seed: WarmSeed) {
        self.warm = true;
        // Re-verify each distinct seeded head against the *live* image: the
        // store is keyed by image hash, but a corrupted snapshot record (or
        // a hash collision) must not smuggle a stale loop head past the
        // deploy gate — nor let a stale winner skip the tournament *and*
        // the safety check. A surviving tournament winner arrives as both a
        // decision and a winner seed; one rejection drops both, and the
        // loop falls back to the cold decision path.
        let mut checked = HashSet::new();
        let mut rejected = HashSet::new();
        let decision_heads = seed.decisions.iter().map(|&(head, _)| head);
        let heads = decision_heads.chain(seed.winners.iter().map(|(head, _)| *head));
        for head in heads.filter(|&head| checked.insert(head)) {
            if let Err(err) = cobra_verify::check_seed(&self.image, head) {
                self.reject(head, format!("warm seed: {err}"));
                rejected.insert(head);
            }
        }
        let live = |head: &CodeAddr| !rejected.contains(head);
        self.seeded
            .extend(seed.decisions.into_iter().filter(|(head, _)| live(head)));
        self.seeded_winners
            .extend(seed.winners.into_iter().filter(|(head, _)| live(head)));
        // A stale blacklist entry is conservative (skips a loop), so it
        // needs no verification.
        self.blacklisted_heads.extend(seed.blacklist);
    }

    /// Whether [`Optimizer::warm_start`] ran.
    pub fn is_warm(&self) -> bool {
        self.warm
    }

    pub fn counters(&self) -> OptimizerCounters {
        self.counters
    }

    /// Final per-loop decisions and the blacklist, for persistence. Both
    /// lists are sorted by loop head so snapshots serialize
    /// deterministically.
    pub fn export_state(&self) -> (Vec<DecisionExport>, Vec<CodeAddr>) {
        let mut decisions: Vec<DecisionExport> = self
            .deployments
            .iter()
            .map(|d| DecisionExport {
                loop_head: d.loop_head,
                kind: d.kind,
                reverted: d.reverted,
                baseline_cpi: d.baseline_cpi,
                post_cpi: d.last_post_cpi,
                candidate: d.candidate.clone(),
                trials: d.trials.clone(),
            })
            .collect();
        decisions.sort_by_key(|d| d.loop_head);
        let mut blacklist: Vec<CodeAddr> = self.blacklisted_heads.iter().copied().collect();
        blacklist.sort_unstable();
        (decisions, blacklist)
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

    /// Publish one `cobra-verify` rejection (plan or warm seed).
    fn reject(&mut self, loop_head: CodeAddr, reason: String) {
        self.emit(TelemetryEvent::VerifyReject {
            tick: self.cur_tick,
            cycle: self.cur_cycle,
            loop_head,
            reason,
        });
    }

    /// Evaluate the current profile; returns any plans to deploy or revert.
    /// The caller should `reset_window` the profile after a deployment so
    /// post-deployment behaviour is measured fresh.
    pub fn consider(&mut self, profile: &SystemProfile) -> Vec<PlanAction> {
        let mut actions = Vec::new();
        self.ticks_seen += 1;
        // This tick's exact deltas when the driver provided them (rolling
        // window otherwise, e.g. when driven directly in tests).
        let tick_window = self.tick_window.take().unwrap_or(profile.window);
        self.track_regressions(profile, &mut actions);
        self.pump_tournaments(profile, &tick_window, &mut actions);

        // A warm-started run may act after the shortened learning window —
        // but only on seeded loops (see below); everything else still waits
        // out the full cold warmup.
        let warmup_gate = if self.warm {
            self.cfg.warm_warmup_ticks.min(self.cfg.warmup_ticks)
        } else {
            self.cfg.warmup_ticks
        };
        if self.ticks_seen <= warmup_gate {
            return actions;
        }
        let in_warm_window = self.warm && self.ticks_seen <= self.cfg.warmup_ticks;
        if profile.samples < self.cfg.min_profile_samples {
            return actions;
        }
        if profile.window.coherent_ratio() < self.cfg.min_coherent_ratio {
            return actions;
        }
        let hot_pcs: Vec<CodeAddr> = profile
            .coherent_delinquent(self.cfg.min_dear_samples, self.cfg.min_coherent_fraction)
            .into_iter()
            .map(|(pc, _)| pc)
            .collect();
        let loops = select_loops(profile, &self.cfg.trace);
        // Candidates: loops pinpointed by DEAR captures, plus — when the
        // system-wide coherent ratio is intense — the hottest other loops
        // (the counter-only path of §4: the DEAR latches one event per
        // sample, so store-upgrade-dominated loops rarely surface there).
        let mut candidates = loops_with_delinquent_loads(&loops, &hot_pcs);
        if profile.window.coherent_ratio() >= self.cfg.fallback_coherent_ratio {
            let mut extra = 0usize;
            for lp in &loops {
                if extra >= self.cfg.fallback_max_loops {
                    break;
                }
                if candidates.iter().any(|c| c.head == lp.head)
                    || self.optimized_heads.contains(&lp.head)
                    || self.blacklisted_heads.contains(&lp.head)
                {
                    continue;
                }
                candidates.push(lp.clone());
                extra += 1;
            }
        }
        // Seeded loops are candidates on prior-run evidence alone: this
        // early in a warm run the DEAR may not have re-pinpointed them yet.
        if !self.seeded.is_empty() || !self.seeded_winners.is_empty() {
            for lp in &loops {
                if (self.seeded.contains_key(&lp.head)
                    || self.seeded_winners.contains_key(&lp.head))
                    && !candidates.iter().any(|c| c.head == lp.head)
                {
                    candidates.push(lp.clone());
                }
            }
        }
        if candidates.is_empty() {
            return actions;
        }
        let mut deployed_this_tick = 0usize;
        for lp in candidates {
            if deployed_this_tick >= self.cfg.max_deploys_per_tick {
                break;
            }
            if self.optimized_heads.contains(&lp.head) || self.blacklisted_heads.contains(&lp.head)
            {
                continue;
            }
            // During the shortened learning window only loops with a seeded
            // (previously validated) decision may deploy; unseeded loops
            // wait out the full cold warmup so a warm run converges to the
            // same deployment set as a cold one.
            if in_warm_window
                && !self.seeded.contains_key(&lp.head)
                && !self.seeded_winners.contains_key(&lp.head)
            {
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
            let seeded_kind = self.seeded.get(&lp.head).copied();
            let Some(kind) = kind else {
                if seeded_kind.is_some() {
                    // The live profile declines what the prior run deployed:
                    // drop the seed, let the normal path re-decide later.
                    self.seeded.remove(&lp.head);
                    self.counters.warm_mismatches += 1;
                }
                continue;
            };
            if self.cfg.candidates {
                let specs = candidate_specs(&sites, lp.head);
                if specs.len() >= 3 {
                    // Tournament path. Classic decision seeds carry no
                    // candidate name; consume them without hit/miss
                    // accounting — the tournament (or the warm winner
                    // below) re-decides from scratch.
                    self.seeded.remove(&lp.head);
                    if let Some(name) = self.seeded_winners.remove(&lp.head) {
                        if let Some(spec) = specs.iter().find(|s| s.name == name) {
                            let won = self.deploy_winner(
                                &lp,
                                &sites,
                                &spec.actions,
                                Some(spec.name),
                                &[],
                                profile,
                                &mut actions,
                            );
                            if won {
                                self.counters.warm_hits += 1;
                                deployed_this_tick += 1;
                            }
                            continue;
                        }
                        // A winner name this build no longer generates:
                        // fall through and re-run the tournament.
                        self.counters.warm_mismatches += 1;
                    }
                    self.optimized_heads.insert(lp.head);
                    self.tournaments.push(Tournament {
                        lp: lp.clone(),
                        sites: sites.clone(),
                        specs,
                        next: 0,
                        results: Vec::new(),
                        baseline_cpi: profile.window.cpi(),
                        live: None,
                        poisoned: false,
                    });
                    deployed_this_tick += 1;
                    continue;
                }
                // Fewer than 3 distinct candidates (e.g. a single-site
                // loop): the tournament adds nothing — classic path below.
            }
            if let Some(seed) = seeded_kind {
                self.seeded.remove(&lp.head);
                if seed == kind {
                    self.counters.warm_hits += 1;
                } else {
                    self.counters.warm_mismatches += 1;
                    if in_warm_window {
                        // Mismatched seeds never deploy early; the loop
                        // falls back to the normal post-warmup path.
                        continue;
                    }
                }
            }
            // Classic one-shot path: every site gets the same rewrite.
            let action = match kind {
                OptKind::NoPrefetch => SiteAction::Nop,
                _ => SiteAction::Excl,
            };
            let uniform = vec![action; sites.len()];
            if self.deploy_winner(&lp, &sites, &uniform, None, &[], profile, &mut actions) {
                deployed_this_tick += 1;
            }
        }
        actions
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

    /// Classify one loop's prefetches. They are *effective* (worth keeping)
    /// when the code streams through L2 (high L2 miss rate — the inverse of
    /// §5.2's "L2 miss ratio is low" condition) or when the loop's DEAR
    /// captures sit in the memory band.
    fn classify(&self, lp: &HotLoop, profile: &SystemProfile) -> bool {
        let mem_frac = self.loop_memory_fraction(lp, profile);
        profile.window.capacity_l2_per_kinst() >= self.cfg.l2_kinst_threshold
            || mem_frac.is_some_and(|f| f > self.cfg.max_memory_fraction)
    }

    /// Decide the rewrite from a loop's classification — or decline
    /// (`None`) when removing the prefetches would hurt.
    fn choose_kind(&self, prefetch_effective: bool) -> Option<OptKind> {
        match self.cfg.strategy {
            Strategy::NoPrefetch => {
                if prefetch_effective {
                    // "avoid removing effective prefetches" (§5.2).
                    None
                } else {
                    Some(OptKind::NoPrefetch)
                }
            }
            Strategy::ExclHint => Some(OptKind::ExclHint),
            Strategy::Adaptive => {
                if prefetch_effective {
                    Some(OptKind::ExclHint)
                } else {
                    Some(OptKind::NoPrefetch)
                }
            }
        }
    }

    /// Original word at `addr` *before* the plan just applied to the own
    /// image: `apply_to_own_image` records patches, so the log's old word
    /// for the most recent patch at `addr` is the pre-plan word.
    fn undo_word(&self, addr: CodeAddr) -> u64 {
        self.image
            .patch_log()
            .iter()
            .rev()
            .find(|r| r.addr == addr)
            .map(|r| r.old_word)
            .unwrap_or_else(|| self.image.word(addr))
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

    /// Build a rewrite plan from a per-site action vector (`actions[i]`
    /// applies to `sites[i]`). Returns `None` when any word the plan must
    /// read fails to decode.
    fn build_plan(
        &mut self,
        lp: &HotLoop,
        sites: &[CodeAddr],
        actions: &[SiteAction],
        candidate: Option<&str>,
        profile: &SystemProfile,
    ) -> Option<PatchPlan> {
        let kind = plan_kind(actions);
        let id = self.next_plan_id;
        self.next_plan_id += 1;
        let action_at: HashMap<CodeAddr, SiteAction> =
            sites.iter().copied().zip(actions.iter().copied()).collect();
        let description = format!(
            "{}{} on loop [{},{}] ({} lfetch sites; coherent ratio {:.3}, L3/kinst {:.2})",
            kind.name(),
            candidate.map(|c| format!(" [{c}]")).unwrap_or_default(),
            lp.head,
            lp.back_edge,
            sites.len(),
            profile.window.coherent_ratio(),
            profile.window.l3_per_kinst(),
        );
        let candidate = candidate.map(str::to_string);
        match self.cfg.deploy {
            DeployMode::InPlace => {
                let mut writes = Vec::with_capacity(sites.len());
                for (&addr, &action) in sites.iter().zip(actions) {
                    if action == SiteAction::Keep {
                        continue;
                    }
                    let insn = self.image.insn(addr).ok()?;
                    writes.push((addr, encode(&self.rewrite_site(&insn, action))));
                }
                Some(PatchPlan {
                    id,
                    kind,
                    loop_head: lp.head,
                    back_edge: lp.back_edge,
                    description,
                    candidate,
                    writes,
                    trace: None,
                })
            }
            DeployMode::TraceCache => {
                // Clone the body, rewriting in-body prefetches and
                // retargeting the back edge to the trace-local head.
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
                // Exit: fall through the cloned back edge, branch back to
                // the instruction after the original back edge.
                insns.push(Insn::new(Op::BrCond {
                    target: lp.back_edge + 1,
                }));
                // Entry-window sites (the hoisted burst) are outside the
                // body; rewrite those in place. The original head becomes a
                // redirect into the trace.
                let mut writes: Vec<(CodeAddr, u64)> = Vec::with_capacity(sites.len() + 1);
                for (&addr, &action) in sites.iter().zip(actions).filter(|&(&a, _)| a < lp.head) {
                    if action == SiteAction::Keep {
                        continue;
                    }
                    let insn = self.image.insn(addr).ok()?;
                    writes.push((addr, encode(&self.rewrite_site(&insn, action))));
                }
                writes.push((
                    lp.head,
                    encode(&Insn::new(Op::BrCond {
                        target: expected_start,
                    })),
                ));
                Some(PatchPlan {
                    id,
                    kind,
                    loop_head: lp.head,
                    back_edge: lp.back_edge,
                    description,
                    candidate,
                    writes,
                    trace: Some(TracePlan {
                        expected_start,
                        insns,
                    }),
                })
            }
        }
    }

    /// The deploy gate, the only way a plan reaches either image: build it,
    /// machine-check it against the live image with `cobra-verify`, apply
    /// it to the own image, and read back the words it overwrote.
    fn stage(
        &mut self,
        lp: &HotLoop,
        sites: &[CodeAddr],
        actions: &[SiteAction],
        candidate: Option<&str>,
        profile: &SystemProfile,
    ) -> Result<(PatchPlan, Vec<(CodeAddr, u64)>), StageError> {
        let Some(plan) = self.build_plan(lp, sites, actions, candidate, profile) else {
            // A word in the loop no longer decodes (e.g. foreign bytes in
            // the text): never retry the loop, don't abort the optimizer.
            self.blacklisted_heads.insert(lp.head);
            self.emit(TelemetryEvent::UndecodableLoop {
                tick: self.cur_tick,
                cycle: self.cur_cycle,
                loop_head: lp.head,
            });
            return Err(StageError::Undecodable);
        };
        verify_plan(&self.image, &plan, self.cfg.trace.entry_window_slots)
            .map_err(StageError::Rejected)?;
        // Apply before reading undo words: the patch log's most recent
        // entry at each address is this plan's only once the plan is in
        // the log (earlier candidates' apply/revert pairs would otherwise
        // shadow the true pre-plan words).
        self.apply_to_own_image(&plan);
        let undo = plan
            .writes
            .iter()
            .map(|&(addr, _)| (addr, self.undo_word(addr)))
            .collect();
        Ok((plan, undo))
    }

    /// Apply a plan to the optimizer's own image copy (keeps both sides'
    /// trace-cache layout identical).
    fn apply_to_own_image(&mut self, plan: &PatchPlan) {
        if let Some(trace) = &plan.trace {
            // Invariant: expected_start was computed as bundle_align(len) of
            // this same image just before this call — appending cannot land
            // anywhere else unless the plan was built against a stale image,
            // which the single-threaded build→apply sequence rules out.
            let start = self.image.append_trace(&trace.insns);
            assert_eq!(start, trace.expected_start, "trace layout divergence");
        }
        for &(addr, word) in &plan.writes {
            // Invariant: plan writes only target addresses read from this
            // image moments ago (and already decoded), so they are in range.
            self.image.patch_word(addr, word).expect("own-image patch");
        }
    }

    /// Advance every in-flight tournament by one tick: close a finished
    /// trial window (record its CPI, revert the candidate), start the next
    /// candidate, and promote the winner once all candidates have run.
    fn pump_tournaments(
        &mut self,
        profile: &SystemProfile,
        tick_window: &CounterWindow,
        actions: &mut Vec<PlanAction>,
    ) {
        if self.tournaments.is_empty() {
            return;
        }
        // Take the list so candidate plan building (which borrows `self`
        // mutably) can run per tournament; unfinished ones go back after.
        let mut tournaments = std::mem::take(&mut self.tournaments);
        tournaments.retain_mut(|t| !self.pump_one(t, profile, tick_window, actions));
        // consider() pumps before it creates new tournaments, so the slot
        // is still empty here; append keeps any future ordering safe.
        self.tournaments.extend(tournaments);
    }

    /// Advance one tournament; returns `true` when it is finished (promoted,
    /// abandoned, or poisoned) and should be dropped.
    fn pump_one(
        &mut self,
        t: &mut Tournament,
        profile: &SystemProfile,
        tick_window: &CounterWindow,
        actions: &mut Vec<PlanAction>,
    ) -> bool {
        if t.poisoned {
            // poison() already blacklisted the loop; the live trial (if
            // any) is unrecoverable on the guest side — drop everything.
            return true;
        }
        if let Some(live) = &mut t.live {
            live.ticks += 1;
            live.insns += tick_window.instructions;
            live.cycles += tick_window.cycles;
            if live.ticks >= self.cfg.trial_ticks && live.insns > 0 {
                let cpi = live.cycles as f64 / live.insns as f64;
                let name = t.specs[live.spec_idx].name;
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
                for &(addr, old) in &live.undo {
                    // Invariant: trial undo words restore addresses this
                    // optimizer patched moments ago — always in range.
                    self.image
                        .patch_word(addr, old)
                        .expect("own-image trial revert");
                }
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
        // candidate deploys (tournaments created on a sample-starved tick
        // would otherwise compare against 0).
        if t.next == 0 && t.baseline_cpi <= 0.0 && profile.window.instructions > 0 {
            t.baseline_cpi = profile.window.cpi();
        }
        // Start the next candidate, skipping any the verifier rejects.
        while t.next < t.specs.len() {
            let spec = &t.specs[t.next];
            let (plan, undo) =
                match self.stage(&t.lp, &t.sites, &spec.actions, Some(spec.name), profile) {
                    Ok(staged) => staged,
                    // The loop stopped decoding mid-tournament: abandon it.
                    Err(StageError::Undecodable) => return true,
                    Err(StageError::Rejected(err)) => {
                        // Reject only this candidate; the rest still compete.
                        self.reject(t.lp.head, format!("candidate '{}': {err}", spec.name));
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
        self.finish_tournament(t, profile, actions);
        true
    }

    /// Pick and deploy the tournament winner, or blacklist the loop when no
    /// candidate survived / even the best one regresses.
    fn finish_tournament(
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
        let regresses = |cpi: f64| {
            t.baseline_cpi > 0.0
                && self.cfg.regression_factor > 0.0
                && cpi > t.baseline_cpi * self.cfg.regression_factor
        };
        let spec = winner
            .filter(|&&(_, cpi)| !regresses(cpi))
            .and_then(|(name, _)| t.specs.iter().find(|s| s.name == name));
        let promoted = match spec {
            Some(spec) => self.deploy_winner(
                &t.lp,
                &t.sites,
                &spec.actions,
                Some(spec.name),
                &t.results,
                profile,
                actions,
            ),
            None => {
                self.blacklisted_heads.insert(t.lp.head);
                self.emit(TelemetryEvent::Blacklist {
                    tick: self.cur_tick,
                    cycle: self.cur_cycle,
                    loop_head: t.lp.head,
                });
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

    /// Stage `actions` as the lasting rewrite for `lp` — the classic
    /// one-shot deployment (`candidate: None`), a tournament promotion, or a
    /// warm-started winner. Returns whether the deployment landed; failures
    /// blacklist the loop rather than deploy a miscompile.
    #[allow(clippy::too_many_arguments)]
    fn deploy_winner(
        &mut self,
        lp: &HotLoop,
        sites: &[CodeAddr],
        actions: &[SiteAction],
        candidate: Option<&str>,
        trials: &[(String, f64)],
        profile: &SystemProfile,
        out: &mut Vec<PlanAction>,
    ) -> bool {
        let (plan, undo) = match self.stage(lp, sites, actions, candidate, profile) {
            Ok(staged) => staged,
            Err(StageError::Undecodable) => return false,
            Err(StageError::Rejected(err)) => {
                self.blacklisted_heads.insert(lp.head);
                let reason = match candidate {
                    Some(name) => format!("winner '{name}': {err}"),
                    None => err.to_string(),
                };
                self.reject(lp.head, reason);
                return false;
            }
        };
        self.optimized_heads.insert(lp.head);
        self.deployments.push(Deployment {
            plan_id: plan.id,
            loop_head: lp.head,
            kind: plan.kind,
            candidate: plan.candidate.clone(),
            trials: trials.to_vec(),
            undo,
            baseline_cpi: profile.window.cpi(),
            last_post_cpi: None,
            post_ticks: 0,
            reverted: false,
        });
        out.push(PlanAction::Apply(plan));
        true
    }

    /// Abandon all optimization of `loop_head` after a guest-side patch
    /// failure (an apply rolled back or a revert stopped): blacklist it, mark
    /// its deployments reverted, and abort any tournament on it. The
    /// optimizer's own image copy is deliberately left as-is — blacklisted
    /// heads are never re-read for planning, and rewinding trace appendices
    /// would desync the two sides' layouts.
    pub fn poison(&mut self, loop_head: CodeAddr) {
        self.blacklisted_heads.insert(loop_head);
        self.seeded.remove(&loop_head);
        self.seeded_winners.remove(&loop_head);
        for d in self
            .deployments
            .iter_mut()
            .filter(|d| d.loop_head == loop_head)
        {
            d.reverted = true;
        }
        for t in self
            .tournaments
            .iter_mut()
            .filter(|t| t.lp.head == loop_head)
        {
            t.poisoned = true;
        }
        self.emit(TelemetryEvent::Blacklist {
            tick: self.cur_tick,
            cycle: self.cur_cycle,
            loop_head,
        });
    }

    /// Accumulate post-deployment CPI and emit reverts on regression.
    fn track_regressions(&mut self, profile: &SystemProfile, actions: &mut Vec<PlanAction>) {
        if self.cfg.regression_factor <= 0.0 || profile.samples == 0 {
            return;
        }
        let cfg = self.cfg;
        // (plan_id, loop_head, saved words to restore, reason)
        type Revert = (u64, CodeAddr, Vec<(CodeAddr, u64)>, String);
        let mut reverts: Vec<Revert> = Vec::new();
        for d in self.deployments.iter_mut().filter(|d| !d.reverted) {
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
            if d.post_ticks >= cfg.regression_ticks && profile.window.instructions > 0 {
                // The rolling window is fully post-deployment by now.
                let post_cpi = profile.window.cpi();
                d.last_post_cpi = Some(post_cpi);
                let regressed =
                    d.baseline_cpi > 0.0 && post_cpi > d.baseline_cpi * cfg.regression_factor;
                // (`self.emit` would need all of `self`; the loop holds
                // `self.deployments`.)
                self.events.push(TelemetryEvent::CpiTrial {
                    tick: self.cur_tick,
                    cycle: self.cur_cycle,
                    plan_id: d.plan_id,
                    post_ticks: d.post_ticks,
                    baseline_cpi: d.baseline_cpi,
                    post_cpi,
                    regressed,
                });
                if regressed {
                    d.reverted = true;
                    reverts.push((
                        d.plan_id,
                        d.loop_head,
                        d.undo.clone(),
                        format!(
                            "CPI regressed {:.3} -> {:.3}; reverting",
                            d.baseline_cpi, post_cpi
                        ),
                    ));
                }
            }
        }
        for (plan_id, loop_head, writes, reason) in reverts {
            // Restore our own copy, and never touch this loop again.
            for &(addr, old) in &writes {
                // Invariant: undo words restore addresses this optimizer
                // patched when it deployed — always in range on our copy.
                self.image.patch_word(addr, old).expect("own-image revert");
            }
            self.blacklisted_heads.insert(loop_head);
            self.emit(TelemetryEvent::Blacklist {
                tick: self.cur_tick,
                cycle: self.cur_cycle,
                loop_head,
            });
            actions.push(PlanAction::Revert {
                plan_id,
                loop_head,
                writes,
                reason,
            });
        }
    }

    /// Number of applied (non-reverted) deployments.
    pub fn active_deployments(&self) -> usize {
        self.deployments.iter().filter(|d| !d.reverted).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::{CounterWindow, LatencyBands, ProfileDelta, SystemProfile};
    use crate::report::CobraReport;
    use cobra_isa::{Assembler, LfetchHint};

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
            delta.dear_events.push((load_pc, 0x1000, dear_latency));
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
                deploy: DeployMode::InPlace,
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
                // 2 burst + 1 in-loop site.
                assert_eq!(plan.writes.len(), 3);
                for &(_, word) in &plan.writes {
                    assert_eq!(
                        cobra_isa::decode(word).unwrap().op,
                        Op::Nop {
                            unit: cobra_isa::Unit::M
                        }
                    );
                }
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
                deploy: DeployMode::InPlace,
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
                for &(_, word) in &plan.writes {
                    match cobra_isa::decode(word).unwrap().op {
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
                deploy: DeployMode::TraceCache,
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
                deploy: DeployMode::InPlace,
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
            deploy: DeployMode::InPlace,
            warmup_ticks: 0,
            regression_ticks: 3,
            regression_factor: 1.05,
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
            cpu: 0,
            window: CounterWindow {
                instructions: 100_000,
                cycles: 400_000, // CPI 4.0 vs baseline 1.5
                ..CounterWindow::default()
            },
            dear_events: vec![],
            branch_pairs: vec![],
            samples: 50,
        });
        // One consider call per tick; the revert fires once regression_ticks
        // post-deployment ticks have been observed.
        let mut actions = opt.consider(&worse);
        for _ in 0..4 {
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
                deploy: DeployMode::TraceCache,
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
            deploy: DeployMode::InPlace,
            warmup_ticks: 10,
            warm_warmup_ticks: 2,
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
        warm.warm_start(WarmSeed {
            decisions: vec![(head, cold_kind)],
            blacklist: vec![],
            winners: vec![],
        });
        assert!(warm.is_warm());
        let (warm_tick, warm_kind) = first_deploy(&mut warm).expect("warm run deploys");
        assert_eq!(warm_kind, cold_kind, "warm run converges on the same plan");
        assert!(
            warm_tick < cold_tick,
            "warm deploy at tick {warm_tick} must beat cold tick {cold_tick}"
        );
        assert_eq!(warm.counters().warm_hits, 1);
        assert_eq!(warm.counters().warm_mismatches, 0);
    }

    /// A seed the live profile contradicts is dropped: no early deploy, and
    /// after the full warmup the normal path decides from scratch.
    #[test]
    fn warm_mismatch_falls_back_to_cold_path() {
        let (image, head, back, load_pc) = loop_image();
        let cfg = OptimizerConfig {
            deploy: DeployMode::InPlace,
            warmup_ticks: 6,
            warm_warmup_ticks: 1,
            ..Default::default()
        };
        // Live profile says the working set fits → NoPrefetch; seed claims
        // the prior run deployed ExclHint.
        let profile = hot_profile(load_pc, head, back, 1.0);
        let mut opt = Optimizer::new(cfg, image);
        opt.warm_start(WarmSeed {
            decisions: vec![(head, OptKind::ExclHint)],
            blacklist: vec![],
            winners: vec![],
        });
        let mut deploys = Vec::new();
        for tick in 1..=12u64 {
            for action in opt.consider(&profile) {
                if let PlanAction::Apply(plan) = action {
                    deploys.push((tick, plan.kind));
                }
            }
        }
        assert_eq!(opt.counters().warm_mismatches, 1);
        assert_eq!(opt.counters().warm_hits, 0);
        assert_eq!(deploys.len(), 1, "exactly one deployment: {deploys:?}");
        let (tick, kind) = deploys[0];
        assert_eq!(kind, OptKind::NoPrefetch, "live profile wins");
        assert!(
            tick > 6,
            "mismatched seed must not deploy early (tick {tick})"
        );
    }

    /// Seeded blacklist entries (prior reverts) are never re-trialed.
    #[test]
    fn seeded_blacklist_suppresses_deployment() {
        let (image, head, back, load_pc) = loop_image();
        let mut opt = Optimizer::new(
            OptimizerConfig {
                deploy: DeployMode::InPlace,
                warmup_ticks: 0,
                ..Default::default()
            },
            image,
        );
        opt.warm_start(WarmSeed {
            decisions: vec![],
            blacklist: vec![head],
            winners: vec![],
        });
        let profile = hot_profile(load_pc, head, back, 1.0);
        for _ in 0..8 {
            assert!(opt.consider(&profile).is_empty());
        }
        assert_eq!(opt.active_deployments(), 0);
    }

    #[test]
    fn optkind_names_round_trip() {
        for kind in OptKind::ALL {
            assert_eq!(OptKind::from_name(kind.name()), Some(kind));
        }
        assert_eq!(OptKind::from_name("bogus"), None);
    }

    /// The OptKind → RewriteKind conversion must stay name-aligned with the
    /// verifier (same pinning discipline as the store's kind names).
    #[test]
    fn optkind_maps_to_verifier_rewrite_kind_by_name() {
        for kind in OptKind::ALL {
            let rk: cobra_verify::RewriteKind = kind.into();
            assert_eq!(kind.name(), rk.name());
        }
        assert_eq!(OptKind::ALL.len(), cobra_verify::RewriteKind::ALL.len());
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
                deploy: DeployMode::InPlace,
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
                deploy: DeployMode::InPlace,
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
                deploy: DeployMode::InPlace,
                warmup_ticks: 0,
                ..Default::default()
            },
            image,
        );
        opt.warm_start(WarmSeed {
            decisions: vec![(9999, OptKind::NoPrefetch), (head, OptKind::NoPrefetch)],
            blacklist: vec![],
            winners: vec![],
        });
        assert_eq!(observed(&opt).verify_rejects, 1);
        // The valid seed still deploys through the normal path.
        let profile = hot_profile(load_pc, head, back, 1.0);
        let actions = opt.consider(&profile);
        assert_eq!(actions.len(), 1);
        assert_eq!(opt.counters().warm_hits, 1);
        assert_eq!(observed(&opt).verify_rejects, 1);
    }

    /// `verify_plan` is the same check the deploy gate runs; a tampered
    /// write in an otherwise-genuine plan must fail it.
    #[test]
    fn verify_plan_rejects_tampered_plan() {
        let (image, head, back, load_pc) = loop_image();
        let mut opt = Optimizer::new(
            OptimizerConfig {
                deploy: DeployMode::InPlace,
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
        let mut names: Vec<&str> = specs.iter().map(|s| s.name).collect();
        names.dedup();
        assert_eq!(names.len(), specs.len(), "duplicate names");
        assert_eq!(specs, candidate_specs(&sites, 3), "deterministic");
        // Kinds map from the action mix.
        let by_name = |n: &str| specs.iter().find(|s| s.name == n).unwrap();
        let kind = |n: &str| plan_kind(&by_name(n).actions);
        assert_eq!(kind("noprefetch"), OptKind::NoPrefetch);
        assert_eq!(kind("prefetch.excl"), OptKind::ExclHint);
        assert_eq!(kind("combined.burst-nop"), OptKind::Combined);
        // A single-site loop collapses to the two uniform rewrites.
        let solo = candidate_specs(&[7], 3);
        assert_eq!(solo.len(), 2, "{solo:?}");
    }

    /// Drive a full tournament: every candidate is deployed for one trial
    /// tick and reverted; the candidate given the lowest trial CPI is
    /// promoted, and the promoted deployment carries its name and trials.
    #[test]
    fn tournament_promotes_lowest_cpi_candidate() {
        let (image, head, back, load_pc) = loop_image();
        let mut opt = Optimizer::new(
            OptimizerConfig {
                deploy: DeployMode::InPlace,
                warmup_ticks: 0,
                candidates: true,
                trial_ticks: 1,
                ..Default::default()
            },
            image,
        );
        let favourite = "prefetch.excl.body";
        let mut live: Option<String> = None;
        let mut trial_applies: Vec<String> = Vec::new();
        let mut promoted: Option<PatchPlan> = None;
        for _ in 0..40 {
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
                        if opt.tournaments.is_empty() {
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
        let (decisions, _) = opt.export_state();
        assert_eq!(decisions.len(), 1);
        assert_eq!(decisions[0].candidate.as_deref(), Some(favourite));
        assert_eq!(
            decisions[0].trials.len(),
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
                deploy: DeployMode::InPlace,
                warmup_ticks: 0,
                candidates: true,
                trial_ticks: 1,
                regression_factor: 1.4,
                ..Default::default()
            },
            image,
        );
        let mut in_trial = false;
        for _ in 0..40 {
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
        assert!(opt.tournaments.is_empty());
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
                deploy: DeployMode::InPlace,
                warmup_ticks: 0,
                candidates: true,
                trial_ticks: 1,
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
        assert!(opt.tournaments.is_empty());
    }

    /// poison() aborts an in-flight tournament and permanently blacklists
    /// the loop (the framework calls it when a guest-side patch fails).
    #[test]
    fn poison_aborts_tournament_and_blacklists_loop() {
        let (image, head, back, load_pc) = loop_image();
        let mut opt = Optimizer::new(
            OptimizerConfig {
                deploy: DeployMode::InPlace,
                warmup_ticks: 0,
                candidates: true,
                trial_ticks: 4,
                ..Default::default()
            },
            image,
        );
        let profile = hot_profile(load_pc, head, back, 1.0);
        opt.consider(&profile); // creates the tournament
        opt.consider(&profile); // deploys the first candidate
        assert_eq!(opt.tournaments.len(), 1);
        opt.poison(head);
        for _ in 0..20 {
            assert!(
                opt.consider(&profile).is_empty(),
                "poisoned loop must stay untouched"
            );
        }
        assert!(opt.tournaments.is_empty(), "tournament dropped");
        assert_eq!(observed(&opt).tournaments_promoted, 0);
        assert_eq!(opt.active_deployments(), 0);
    }

    /// A warm-started winner deploys directly — no trials, no tournament.
    #[test]
    fn warm_winner_resumes_without_retrialing() {
        let (image, head, back, load_pc) = loop_image();
        let mut opt = Optimizer::new(
            OptimizerConfig {
                deploy: DeployMode::InPlace,
                warmup_ticks: 0,
                candidates: true,
                trial_ticks: 1,
                ..Default::default()
            },
            image,
        );
        opt.warm_start(WarmSeed {
            decisions: vec![],
            blacklist: vec![],
            winners: vec![(head, "combined.burst-nop".into())],
        });
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
        assert!(opt.tournaments.is_empty());
        assert_eq!(opt.counters().warm_hits, 1);
        assert_eq!(opt.active_deployments(), 1);
    }
}
