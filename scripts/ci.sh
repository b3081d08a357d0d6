#!/usr/bin/env bash
# The gates, one function per CI job: `.github/workflows/ci.yml` runs
# `scripts/ci.sh <job>` and so can anyone with a checkout — nothing here
# needs the network. Every job body is cargo invocations; the twenty-two
# deleted-name greps, the manifest check, the three docs checks, the `pub`
# census, the two named-test list pins, the `dispatch_class` symbol check,
# the benchmark/run.sh loop and the mutant ledger's loop are the only shell. A test target runs once
# per profile in an `all` pass: the two `--workspace` lines (`build-test`
# plain, `overflow-checks` overflow-checked) run every target, so no job
# names one again under the same profile; what a suite guards is said at the
# head of its file.
#
#   scripts/ci.sh <job>   one job (names below)
#   scripts/ci.sh all     every job, in this order
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_NET_OFFLINE=true

JOBS=(build-test overflow-checks floors benchmark-builds tournament-determinism
      decisions-pinned mutants)

build-test() {
  # crossbeam and parking_lot were shims with one user each (the telemetry
  # ring, the trial runner's work queue); both users are plain std now.
  # criterion and the cobra-bench crate on it were a second measuring system
  # beside benchmark/, which is the only one. A manifest or lock that names
  # any of them again is a dependency coming back unasked (whole words:
  # benchmark/Cargo.toml is `cobra-benchmark`).
  if grep -nwE 'crossbeam|parking_lot|criterion|cobra-bench' Cargo.lock $(git ls-files '*Cargo.toml'); then
    echo "a deleted dependency is named again" >&2
    return 1
  fi
  # What a rewrite is called is `cobra_isa::RewriteKind` and nothing else:
  # `cobra_rt::OptKind` and `cobra_verify::RewriteKind` are re-exports of it
  # and the store asks it for names.
  if grep -rnE 'enum OptKind|KNOWN_KINDS' crates/; then
    echo "a second spelling of the rewrite kind is back" >&2
    return 1
  fi
  # The text has one stamp, `CodeImage::generation`, moved by the image's
  # own `patch_word` / `append_trace`: no wrapper that counts beside it and
  # no hook a writer has to remember to call.
  if grep -rnE 'struct ProgramCode|fn note_patch|fn note_append' crates/; then
    echo "a second invalidation mechanism for the program text is back" >&2
    return 1
  fi
  # A run has one account: `CobraReport` is written by folding the event
  # stream (`CobraReport::observe`) and by nothing else — no handle on the
  # report for the framework to write through, no counters mirrored out of
  # the optimizer, no second aggregator over a trace.
  if grep -rnE 'report_mut|sync_counters|OptimizerCounters|TraceSummary' crates/*/src src; then
    echo "a second writer or reader of the run's account is back" >&2
    return 1
  fi
  # The account is the guest's: the engine's own counters stay on
  # `Machine::block_stats()`, out of the report and the trace, so both
  # engines write the same report. Nothing reads the environment: a test
  # that wants the other engine says `with_host_accel`.
  if grep -rnE 'COBRA_HOST_ACCEL|env::var|block_(builds|invalidations|fallback|horizon)' crates/*/src src tests; then
    echo "an engine counter in the run's account, or an environment read, is back" >&2
    return 1
  fi
  # Two or more Running cores run in the boundary batch and nowhere else:
  # no safe-horizon stretch, no static memory-distance bound behind it, no
  # cap that hands the batch back to look for one.
  if grep -rnE 'mem_free_cycles|mem_free_path_uops|dist_from_exit|dist_memo|MIN_HORIZON|BOUNDARY_BATCH|note_horizon' crates/ src tests; then
    echo "the multicore safe-horizon stretch is back" >&2
    return 1
  fi
  # Under `Fast`, `Machine::run` has two paths, the solo stretch and the
  # boundary batch, behind one budget rule (`sampling_budget`): no separate
  # stall skip and no per-cycle step for a sampling crossing.
  if grep -rnE 'SamplingGate|sampling_gate|stall_skip_window|skip_stalled' crates/ src tests; then
    echo "a third path through Machine::run (stall skip or sampling gate) is back" >&2
    return 1
  fi
  # A rewrite deploys one way: its clone goes to the trace cache and the
  # loop head is redirected into it. No second deployment form, no identity
  # OSR map for one, and no memory flag on a micro-op that nothing reads.
  if grep -rnE 'DeployMode|deploy_mode|InPlace|OsrMap::identity|is_identity|F_MEM' crates/ src tests; then
    echo "a second deployment path or the micro-op memory flag is back" >&2
    return 1
  fi
  # What a caller can set of COBRA is what some caller sets: `strategy`,
  # `candidates` and `osr` on the builder, `warmup_ticks`,
  # `entry_window_slots`, the perfmon sampling period and the OpenMP
  # quantum. Every knob only one value ever served is a constant beside the
  # code that reads it; none comes back as a config type, a field or a
  # setter. (Whole words: `trial_ticks` stays, as a telemetry event field;
  # `fn connect_timeout`, because the fleet client calls std's.)
  if grep -rnwE 'CobraConfig|PhaseConfig|usb_capacity|overhead_per_sample|warm_warmup_ticks|regression_factor|regression_ticks|fork_overhead|max_region_cycles|buffer_capacity|sampling_event|min_count|max_body_slots|change_factor|warmup_windows|min_instructions|pmcs|fn sampling_period|fn optimizer|fn connect_timeout' crates/ src tests examples; then
    echo "a COBRA knob only one value served is settable again" >&2
    return 1
  fi
  # The verifier states each rule once and keeps no helper nothing calls:
  # the operand table is `Op::operands()` (no def/use wrappers over it), a
  # walk steps with `successor_pair` (no successor lists, no reachability
  # set), an OSR map is read through its layout, and the HPM's sampling
  # state through `sampling_headroom`.
  if grep -rnE 'mod defuse|fn successors_at|fn reachable|pub fn successors\(|pub fn lookup\(|fn sampling_config' crates/ src tests; then
    echo "a deleted verifier, OSR or HPM helper is back" >&2
    return 1
  fi
  # An OSR map is its layout, three addresses: no per-slot entry list in
  # `cobra-osr`, no per-slot edge in the machine's redirect table (one
  # window per armed plan), and no verifier check for a map that is not
  # total or is off its offset, which cannot be built.
  if grep -rnE 'OsrEntry|redirect_pairs|RedirectEntry|OsrMapNotTotal|OsrMapWrongOffset' crates/ src tests examples; then
    echo "a per-slot OSR map, redirect edge or map-shape violation is back" >&2
    return 1
  fi
  # A run's trace is every record it emitted: the sink is an in-memory log
  # with no per-tick cap and no writer that can refuse a record, so nothing
  # is dropped and the report counts no records. (`tests/golden.rs` keeps
  # the bytes older builds wrote with those members, which must still
  # decode.)
  if grep -rnE --exclude=golden.rs 'TICK_CAPACITY|TelemetrySink::Jsonl|telemetry_dropped|records_dropped|telemetry_records' crates/ src tests examples; then
    echo "a telemetry cap, the JSONL sink or a record count is back" >&2
    return 1
  fi
  # A record costs the guest no cycle: there is no per-tick count of
  # records written for the framework to charge, so a traced run is the
  # untraced run (`a_traced_run_is_the_untraced_run`), and the test that
  # bounded the charge at 5 % is gone with it.
  if grep -rnE 'telemetry\.drain\(|telemetry_overhead_within_five_percent' crates/ src tests examples; then
    echo "a per-record telemetry charge, or the test that bounded it, is back" >&2
    return 1
  fi
  # The fleet server is one locked state: no shards, no hash that picks
  # one, no atomic counters beside the map, and no shard count in the
  # `Stats` reply or the CLI.
  if grep -rnE 'SHARDS|fn shard_for|struct Counters|\.shards\b' crates/fleet/src crates/harness/src; then
    echo "fleet server sharding is back" >&2
    return 1
  fi
  # A monitor is its profiler: the samples a tick drains are reduced in that
  # tick, so no buffer sits between the kernel buffer and the profile and no
  # event reports one. Workloads run through `execute_plain`, serial
  # regions through `parallel_for` on a team of one.
  if grep -rnE 'UserSamplingBuffer|USB_CAPACITY|UsbLevel|usb_level|mod usb|fn serial\(' crates/ src tests examples; then
    echo "the User Sampling Buffer or a deleted entry point is back" >&2
    return 1
  fi
  # Each machine is one preset (`smp4`, `altix8`), with no sized constructor
  # behind it; the fleet server has no shard count to set; a quantum runs
  # through `Machine::run`. (`run_quantum` stays only because
  # `benchmark/` calls it: nothing in the workspace may.)
  if grep -rnE '\.run_quantum\(|pub fn smp\(|pub fn altix\(|--shards' crates/ src tests examples; then
    echo "a sized machine constructor, the shard-count flag or a run_quantum call is back" >&2
    return 1
  fi
  # A traced loop part issues its whole group from the trace row of the
  # current residue (`Core::issue_loop`), and the trace is built with its
  # block: no per-uop loop dispatch, no per-slot row lookup, no lazy trace.
  if grep -rnE 'fn dispatch_loop\(|fn loop_slot\(|OnceLock' crates/machine/src; then
    echo "per-uop loop dispatch or the lazy loop trace is back" >&2
    return 1
  fi
  # Fig. 4's optimization thread is `Cobra::on_quantum` itself: it folds
  # the tick's deltas and opens the optimizer's tick in one call, with no
  # stage object between them and no bundle of what the stage held at
  # detach. A multi-phase kernel's barrier is its fork/join, so no
  # in-program barrier emitter is kept beside it.
  if grep -rnE 'OptimizationStage|OptFinal|fn observe_tick_window|emit_barrier|BarrierRegs' crates src tests examples; then
    echo "the optimization stage, the split tick call or the in-program barrier is back" >&2
    return 1
  fi
  # Where each opcode's fields sit in the word is one instruction table in
  # `crates/isa/src/encode.rs`, from which `encode`, `decode` and `Op::unit`
  # are generated: no opcode constant list and no hand-mirrored codec beside it.
  if grep -rnE 'mod opc|fn pack_branch|fn rel_code|fn hint_code|fn unit_code|fn put_imm22' crates/isa/src; then
    echo "a second, hand-mirrored instruction codec is back" >&2
    return 1
  fi
  # The instruction set is what the guests run: an opcode no guest emits
  # (the two atomics, `br.call`/`br.ret` and `b0`, the bitwise ops, the
  # spare FP moves and the `ar` reads) is not kept in the table, the
  # interpreter or the memory system beside the opcodes that are
  # (`every_opcode_is_emitted_by_a_guest` in tests/integration.rs).
  if grep -rnE '\b(FetchAdd8|Cmpxchg8|FmsD|FaddD|FabsD|FnegD|GetfD|GetfSig|FcvtFxTrunc|SarI|AndI|BrCall|BrRet|MovFromLc|MovFromEc|MovToB0|MovFromB0)\b|Op::(And|Or|Xor)\b|Reg::B0|BrKind::(Call|Ret)|AccessKind::Atomic' crates src tests examples; then
    echo "an opcode no guest emits is back" >&2
    return 1
  fi
  # What a run learned has one shape, `cobra-store`'s records: the optimizer
  # warms from its `DecisionRecord`s, `WinnerRecord`s and blacklist and
  # exports the same, with no mirror types in `cobra-rt` and no conversion
  # between them.
  if grep -rnE 'struct WarmSeed|struct DecisionExport|fn seed_from_snapshot|fn snapshot_from_final' crates/; then
    echo "a second shape of the stored decisions, or a conversion into it, is back" >&2
    return 1
  fi
  # A line's MESI state has one record, the memory system's directory: no
  # presence vector beside it that a snoop consults, and no state bits in
  # the cache arrays.
  if grep -rnE 'other_holders|presence_set|presence_clear|fn state_of' crates/; then
    echo "a second record of MESI state (presence vector or cache state bits) is back" >&2
    return 1
  fi
  # Every `[dependencies]` and `[dev-dependencies]` entry of a workspace
  # manifest is named (as its crate identifier) in that crate's src, tests,
  # examples or build script: an entry nothing uses is deleted, not kept.
  local manifest dir dep src unused=0
  local -a srcs
  for manifest in $(git ls-files '*Cargo.toml' | grep -v '^benchmark/'); do
    dir=$(dirname "$manifest")
    srcs=()
    for src in src tests examples benches build.rs; do
      [[ -e $dir/$src ]] && srcs+=("$dir/$src")
    done
    while read -r dep; do
      grep -rqw "${dep//-/_}" "${srcs[@]}" ||
        { echo "$manifest: $dep is never named in its crate" >&2; unused=1; }
    done < <(awk '/^\[/ { on = $0 == "[dependencies]" || $0 == "[dev-dependencies]"; next }
                  on && /^[A-Za-z0-9_-]/ { sub(/[ .=].*/, ""); print }' "$manifest")
  done
  ((unused == 0)) || { echo "a manifest names a dependency nothing uses" >&2; return 1; }
  # The docs check themselves. (a) Every repository path and every bare
  # `*.rs` name that DESIGN.md, README.md or EXPERIMENTS.md cites is in the
  # tree: a path under one of the top-level directories names a tracked
  # file or directory, any other `*.rs` name is the tail of a tracked path.
  # (b) Every `DESIGN §` reference in the code and the kept documents
  # (CHANGES.md is history, and says what was true then) names a heading of
  # DESIGN.md, and so does every `§5x` inside it. (c) DESIGN.md stays under
  # its ceiling, which only goes down, like the census below.
  local tracked tok re missing=0
  tracked=$(git ls-files)
  while read -r tok; do
    while [[ $tok == *[.,:] ]]; do tok=${tok%?}; done
    re=$(sed -e 's/[.]/\\./g' -e 's/[*]/[^\/]*/g' <<<"${tok%/}")
    if [[ $tok =~ ^(crates|src|tests|scripts|benchmark|compat|examples)/ ]]; then
      re="^$re(/|\$)"
    else
      re="(^|/)$re\$"
    fi
    grep -qE "$re" <<<"$tracked" || { echo "cited but not in the tree: $tok" >&2; missing=1; }
  done < <(grep -ohE '(^|[^/A-Za-z0-9_.-])((crates|src|tests|scripts|benchmark|compat|examples)/[A-Za-z0-9_./*-]*|[A-Za-z0-9_./-]*[A-Za-z0-9_]\.rs)' \
    DESIGN.md README.md EXPERIMENTS.md | sed -E 's/^[^A-Za-z0-9_.]//' | sort -u)
  local headings ref
  headings=$(sed -nE 's/^## ([0-9]+[a-z]?)\. .*/\1/p' DESIGN.md)
  while read -r ref; do
    grep -qx "${ref#§}" <<<"$headings" || { echo "DESIGN.md has no section $ref" >&2; missing=1; }
  done < <({
    grep -ohE 'DESIGN(\.md)? §[0-9]+[a-z]?((,| and| or|/) ?§[0-9]+[a-z]?)*' \
      $(git ls-files crates src tests scripts) README.md EXPERIMENTS.md ROADMAP.md \
      results_all.md .claude/skills/verify/SKILL.md
    grep -oE '§[0-9]+[a-z]\b' DESIGN.md
  } | grep -oE '§[0-9]+[a-z]?' | sort -u)
  ((missing == 0)) || { echo "the docs cite what is not there" >&2; return 1; }
  local design_lines
  design_lines=$(wc -l <DESIGN.md)
  echo "DESIGN.md lines: $design_lines"
  if ((design_lines > 692)); then
    echo "DESIGN.md grew past 692 lines" >&2
    return 1
  fi
  # The surface census (ROADMAP 7c): every `pub` item names a caller outside
  # its own crate's tests. The count only goes down; a PR that needs a new
  # item deletes one or raises this number on purpose, in its diff.
  local pubs
  pubs=$(grep -rhE '^\s*pub (fn|struct|enum|const|mod|type|trait|use|static)' crates/*/src src | wc -l)
  echo "pub items in crates/*/src + src: $pubs"
  if ((pubs > 471)); then
    echo "the pub surface grew past 471" >&2
    return 1
  fi
  cargo build --release --workspace
  # Tier-1 as ROADMAP states it: the root package alone resolves features
  # for itself, which `--workspace` (every member at once) does not show.
  cargo test -q
  cargo test --workspace -q
  # The three floors that compare only simulated state are plain tests of
  # the suites above; a rename or a deletion fails here. (`grep` without
  # `-q`: it reads the whole list, so the lister never writes to a closed
  # pipe.)
  # So are the two tests that hold `cobra-isa`'s operand table to the
  # interpreter's hand-written `sources_ready` and `execute`, and the one
  # that holds a core's cursor to the text's stamp (in-crate: all private);
  # and one of the two guest fetches outside the image that must fault
  # the thread on both engines, not panic the host; and the proptest of
  # software-pipelined loops, which runs loop traces across rotation residues;
  # and the oracle that holds the cache's two arrays to the slot array they
  # replaced, way for way; and the check that the CG problem every cell
  # shares is, bit for bit, the one a fresh solve builds; and the two pins
  # that run NPB `mg` under COBRA on both engines against one recorded
  # digest per arm; and the three that hold the fleet server's held seed
  # frame to the bytes a fresh build writes, its counters to every serve,
  # and a warm restart to one file per key; and the two that hold the budget
  # rule to its reach: a halted CPU near its threshold does not hold the
  # Running ones to one cycle at a time, and sampling an event with no
  # per-cycle bound still lets stall windows run in bulk; and the fleet
  # client's dial past a refused address to a live one; and the two that
  # hold the codec's declared-order key match to the any-order scan, on
  # derived shapes and on every corpus value with its members reversed; and
  # the two that hold a verifier rejection's text to the plan alone, live
  # bases in ascending site order on every call, for plans and OSR maps; and
  # the two that hold the lowering rule of the fused arms (a rotating
  # operand or an `r0` destination lowers to `OpClass::Other`) in
  # `cobra-isa` and across both engines with the rotating bases moved; and
  # the edges of an issue group inside a traced loop part (a stall on its
  # second or third uop, a not-taken `br.ctop` with slots left, a fault, a
  # mid-group `clrrrb`) on the solo stretch and in the boundary batch; and
  # the two that hold the instruction table to the format: every opcode's
  # word to the literal it has always been, and decode to the words encode
  # writes; and the one that holds a trace, a report and a `Stats` reply
  # written with members since deleted to the values they decode to now;
  # and the one that holds the opcodes `decode` accepts to those the guests
  # emit.
  has() {
    local target=(--test "$2")
    [[ $2 == --lib ]] && target=(--lib)
    cargo test -q -p "$1" "${target[@]}" -- --list | grep -x "$3: test"
  }
  has cobra-machine --lib core::tests::lowered_sources_are_the_registers_the_reference_waits_on
  has cobra-machine --lib core::tests::execute_writes_exactly_the_defs_of_the_operand_table
  has cobra-machine --lib core::tests::any_text_mutation_retires_a_held_cursor_and_the_next_fetch_lowers_the_new_words
  has cobra-machine --lib cache::tests::compact_arrays_match_the_slot_array
  has cobra-kernels --lib npb::cgk::tests::the_shared_problem_equals_a_fresh_solve_bit_for_bit
  has cobra-machine stall_skip_equivalence stall_heavy_200k_cycles_match_reference
  has cobra-machine stall_skip_equivalence direct_branch_past_the_image_faults_not_panics
  has cobra-machine block_dispatch_equivalence mem_boundary_4core_matches_reference_in_the_boundary_batch
  has cobra-machine block_dispatch_equivalence pipelined_loops_match_reference
  has cobra-machine block_dispatch_equivalence halted_cpu_near_its_threshold_does_not_hold_the_run
  has cobra-machine stall_skip_equivalence unbounded_event_sampling_still_skips_stall_windows
  has cobra-rt e2e_cobra a_traced_run_is_the_untraced_run
  has cobra decision_pin coarse_quantum_decisions_are_those_of_the_recorded_commit
  has cobra decision_pin tournament_decisions_are_those_of_the_recorded_commit
  has cobra-fleet ingest a_served_seed_is_the_frame_a_fresh_build_writes
  has cobra-fleet ingest repeat_fetches_count_every_serve
  has cobra-fleet ingest restart_loads_each_key_from_its_own_file
  has cobra-fleet --lib client::tests::dial_falls_through_a_refused_address_to_a_live_server
  has serde_json codec declared_order_and_any_order_read_the_same_values
  has cobra golden every_corpus_value_decodes_from_its_members_reversed
  has cobra golden legacy_members_are_skipped_and_the_rest_decodes
  has cobra-verify --lib tests::live_bases_are_reported_in_site_order_on_every_call
  has cobra-verify --lib tests::clobbered_osr_registers_are_reported_in_site_order_on_every_call
  has cobra-isa --lib uop::tests::rotating_operands_and_r0_destinations_lower_to_other
  has cobra-machine block_dispatch_equivalence fused_class_opcodes_across_the_rotation_rule_execute_identically
  has cobra-machine block_dispatch_equivalence loop_part_group_edges_match_reference
  has cobra-isa --lib encode::tests::every_opcode_writes_its_recorded_word
  has cobra-isa --lib encode::tests::decode_accepts_only_the_words_encode_writes
  has cobra integration every_opcode_is_emitted_by_a_guest
  cargo fmt --check
  cargo clippy --workspace --all-targets -- -D warnings
}

# Every suite again with overflow-checked arithmetic — any u64 wrap hidden
# by release-mode wrapping semantics fails here. It matters most for the
# equivalence proptests (memory system, stall skip, block dispatch), the
# store's corruption suite, the fleet server and the compat/serde* codec
# (arithmetic on offsets and digits a peer or a damaged file chooses), and
# the verify / OSR-map mutation suites.
overflow-checks() {
  cargo test --workspace --profile overflow -q
}

# The six wall-clock floors. Each is an `#[ignore]`d test that first
# requires the two engines (each machine's runs, for the snoop path;
# nothing, for the overhead budgets) to agree
# and then compares min-of-N host time, so it only means something in
# release. One invocation per floor, filtered by cargo's own test filter: a
# red line names the floor that broke. The list is pinned first, so a floor
# cannot be dropped or renamed silently (`--exact` on a name that is gone
# runs nothing and passes). `Core::dispatch_class` must stay inlined into
# the issue loop (outlined, it slowed the arithmetic loops by a fifth), so
# a symbol of its own in the engine floors' binary fails the job. The
# floors build with every function aligned to 64 bytes, in a target
# directory of their own, so a ratio reads the code and not where the
# linker happened to place it (unaligned, the same source read 10-25 %
# apart from one checkout directory to another).
floors() {
  local -x RUSTFLAGS="-C llvm-args=-align-all-functions=6" CARGO_TARGET_DIR=target/aligned
  cargo test --release -p cobra-machine --test engine_floors -p cobra-rt --test overhead_floors --no-run
  local bin
  bin=$(cargo test --release -p cobra-machine --test engine_floors --no-run 2>&1 |
    sed -n 's/^ *Executable .*(\(.*\))$/\1/p')
  [[ -x $bin ]] || { echo "engine_floors binary not found" >&2; return 1; }
  if nm -C "$bin" | grep dispatch_class; then
    echo "Core::dispatch_class has a symbol of its own: it is no longer inlined" >&2
    return 1
  fi
  ignored() { cargo test -q --release -p "$1" --test "$2" -- --ignored --list | grep ': test$' | sort; }
  diff -u - <(ignored cobra-machine engine_floors) <<'LIST'
arith4_sampled_batch_at_least_1_6x_reference: test
mem_boundary4_ctop_dispatch_at_least_1_1x_reference: test
snoop_miss_on_altix8_within_1_10x_smp4: test
solo_block_dispatch_at_least_1_5x_reference: test
LIST
  diff -u - <(ignored cobra-rt overhead_floors) <<'LIST'
osr_under_5_percent_of_a_deployment_tick: test
verify_under_5_percent_of_a_deployment_tick: test
LIST
  floor() { cargo test --release -p "$1" --test "$2" -- --ignored --nocapture --exact "$3"; }
  floor cobra-machine engine_floors solo_block_dispatch_at_least_1_5x_reference
  floor cobra-machine engine_floors arith4_sampled_batch_at_least_1_6x_reference
  floor cobra-machine engine_floors snoop_miss_on_altix8_within_1_10x_smp4
  floor cobra-machine engine_floors mem_boundary4_ctop_dispatch_at_least_1_1x_reference
  floor cobra-rt overhead_floors verify_under_5_percent_of_a_deployment_tick
  floor cobra-rt overhead_floors osr_under_5_percent_of_a_deployment_tick
}

# The performance record is a package of its own (benchmark/Cargo.toml)
# with path dependencies on crates/: build it, run its self-tests and four
# short workloads, so a public-API change in crates/ cannot break it
# unnoticed. compute_dense shows a machine break; npb_fixed_smp4 is the only
# short one that puts coherent traffic through the boundary batch;
# adapt_fine_smp4 is the only workload that drives tournaments, OSR arming
# and the store through `Cobra`, so an rt API or behaviour break shows
# there; fleet_mixed is the only one whose correctness check compares a
# server's replies with the fold state the requests imply. (Building it can
# rewrite benchmark/Cargo.lock: `git checkout benchmark/Cargo.lock` before
# committing anything.)
benchmark-builds() {
  cargo test --manifest-path benchmark/Cargo.toml -q
  local out workload
  out=$(mktemp)
  for workload in compute_dense npb_fixed_smp4 adapt_fine_smp4 fleet_mixed; do
    bash benchmark/run.sh --workload "$workload" --seconds 5 --trace 0 | tee "$out"
    tail -n 1 "$out" | grep -q '"correct": true'
  done
  rm -f "$out"
}

# Tournament determinism: the two whole-grid properties of `fig5
# --candidates` in crates/harness/tests/tournament_determinism.rs — the same
# text and the same `--trace-out` file for one worker and four, and cold
# winners resumed warm with no trials. (That a warm run resumes the stored
# winner at all is `warm_run_resumes_tournament_winner` in
# crates/core/tests/warm_start.rs, a plain test of the workspace lines.)
tournament-determinism() {
  cargo test --release -p cobra-harness --test tournament_determinism -- --ignored
}

# The decision sequence is a checked property, not a sentence in a PR
# description: crates/harness/tests/decisions_pinned.rs holds results_all.md
# to `cobra-repro all --md`, byte for byte — Figs. 2, 3 and 5-7, Table 1,
# the shape checks, the --candidates grids cold and warm on both machines
# and the OSR table. About 50-70 s in release on a 2-vCPU host (the four fig5
# grids it replaced took about 32 s).
decisions-pinned() {
  cargo test --release -p cobra-harness --test decisions_pinned -- --ignored
}

# The mutant ledger (scripts/mutants.txt): each entry, alone, must make its
# named test fail. The tree is copied to target/mutants/tree (fresh each
# run, file times not kept, so no artifact of an earlier mutant is reused)
# and built in a target directory of its own; each entry rebuilds only the
# crates its file reaches and runs only its test's target, in the plain test
# profile. A mutant the named test survives, an old text that is not in its
# file exactly once, a mutant that does not build and a test name the target
# does not list each fail the job.
mutants() {
  local tree=target/mutants/tree
  local -x CARGO_TARGET_DIR=$PWD/target/mutants/target
  rm -rf "$tree"
  mkdir -p "$tree"
  git ls-files -z --cached --others --exclude-standard |
    tar -c --null --ignore-failed-read -T - | tar -x -m -C "$tree"
  local line file old new test pkg target name path text rest n=0 bad=0
  local -a sel
  while IFS= read -r line; do
    case $line in
      file\ *) file=${line#file } ;;
      old\ *) old=${line#old } ;;
      new\ *) new=${line#new } ;;
      test\ *) test=${line#test } ;;
      *) continue ;;
    esac
    [[ $line == test\ * ]] || continue
    n=$((n + 1))
    read -r pkg target name <<<"$test"
    sel=(--test "$target")
    [[ $target == --lib ]] && sel=(--lib)
    path=$tree/$file
    text=$(<"$path")
    rest=${text//"$old"/}
    if (((${#text} - ${#rest}) != ${#old})); then
      echo "mutant $n: the old text is not in $file exactly once" >&2
      bad=1
      continue
    fi
    cp "$path" "$path.orig"
    printf '%s\n' "${text/"$old"/"$new"}" >"$path"
    echo "mutant $n: $file: $new -> $name"
    if ! (cd "$tree" && cargo test -q -p "$pkg" "${sel[@]}" --no-run); then
      echo "mutant $n does not build" >&2
      bad=1
    elif ! (cd "$tree" && cargo test -q -p "$pkg" "${sel[@]}" -- --list) | grep -x "$name: test" >/dev/null; then
      echo "mutant $n: $pkg ${sel[*]} has no test $name" >&2
      bad=1
    elif (cd "$tree" && cargo test -q -p "$pkg" "${sel[@]}" -- --exact "$name" >/dev/null 2>&1); then
      echo "mutant $n SURVIVED: $name passes with it" >&2
      bad=1
    fi
    # The original back, with a new file time so the next build sees it.
    mv "$path.orig" "$path"
    touch "$path"
  done <scripts/mutants.txt
  echo "$n mutants"
  ((bad == 0 && n > 0)) || { echo "the mutant ledger failed" >&2; return 1; }
}

job=${1:-}
if [[ "$job" == all ]]; then
  for job in "${JOBS[@]}"; do
    echo "== $job =="
    "$job"
  done
elif [[ " ${JOBS[*]} " == *" $job "* ]]; then
  "$job"
else
  echo "usage: scripts/ci.sh <job>|all, where <job> is one of: ${JOBS[*]}" >&2
  exit 2
fi
