#!/usr/bin/env bash
# The gates, one function per CI job: `.github/workflows/ci.yml` runs
# `scripts/ci.sh <job>` and so can anyone with a checkout — nothing here
# needs the network. Every job body is cargo invocations; the seven
# deleted-name greps, the `pub` census, the two named-test list pins and the
# benchmark/run.sh loop are the only shell. A test target runs once per
# profile in an `all` pass: the two `--workspace` lines (`build-test` plain,
# `overflow-checks` overflow-checked) run every target, so no job names one
# again under the same profile; what a suite guards is said at the head of
# its file.
#
#   scripts/ci.sh <job>   one job (names below)
#   scripts/ci.sh all     every job, in this order
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_NET_OFFLINE=true

JOBS=(build-test overflow-checks floors benchmark-builds tournament-determinism
      decisions-pinned)

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
  # A rewrite deploys one way: its clone goes to the trace cache and the
  # loop head is redirected into it. No second deployment form, no identity
  # OSR map for one, and no memory flag on a micro-op that nothing reads.
  if grep -rnE 'DeployMode|deploy_mode|InPlace|OsrMap::identity|is_identity|F_MEM' crates/ src tests; then
    echo "a second deployment path or the micro-op memory flag is back" >&2
    return 1
  fi
  # The surface census (ROADMAP 7c): every `pub` item names a caller outside
  # its own crate's tests. The count only goes down; a PR that needs a new
  # item deletes one or raises this number on purpose, in its diff.
  local pubs
  pubs=$(grep -rhE '^\s*pub (fn|struct|enum|const|mod|type|trait|use|static)' crates/*/src src | wc -l)
  echo "pub items in crates/*/src + src: $pubs"
  if ((pubs > 760)); then
    echo "the pub surface grew past 760" >&2
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
  # and one of the three guest fetches outside the image that must fault
  # the thread on both engines, not panic the host; and the proptest of
  # software-pipelined loops, which runs loop traces across rotation residues;
  # and the oracle that holds the cache's two arrays to the slot array they
  # replaced, way for way; and the check that the CG problem every cell
  # shares is, bit for bit, the one a fresh solve builds; and the two pins
  # that run NPB `mg` under COBRA on both engines against one recorded
  # digest per arm; and the three that hold the fleet server's held seed
  # frame to the bytes a fresh build writes, its counters to every serve,
  # and a warm restart to one file per key.
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
  has cobra-machine stall_skip_equivalence br_ret_to_a_wild_b0_faults_not_panics
  has cobra-machine block_dispatch_equivalence mem_boundary_4core_matches_reference_in_the_boundary_batch
  has cobra-machine block_dispatch_equivalence pipelined_loops_match_reference
  has cobra-rt e2e_cobra telemetry_overhead_within_five_percent_on_daxpy
  has cobra decision_pin coarse_quantum_decisions_are_those_of_the_recorded_commit
  has cobra decision_pin tournament_decisions_are_those_of_the_recorded_commit
  has cobra-fleet ingest a_served_seed_is_the_frame_a_fresh_build_writes
  has cobra-fleet ingest repeat_fetches_count_every_serve
  has cobra-fleet ingest restart_loads_each_key_from_its_own_file
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
# requires the two engines (or nothing, for the overhead budgets) to agree
# and then compares min-of-N host time, so it only means something in
# release. One invocation per floor, filtered by cargo's own test filter: a
# red line names the floor that broke. The list is pinned first, so a floor
# cannot be dropped or renamed silently (`--exact` on a name that is gone
# runs nothing and passes).
floors() {
  cargo test --release -p cobra-machine --test engine_floors -p cobra-rt --test overhead_floors --no-run
  ignored() { cargo test -q --release -p "$1" --test "$2" -- --ignored --list | grep ': test$' | sort; }
  diff -u - <(ignored cobra-machine engine_floors) <<'LIST'
arith4_sampled_batch_at_least_1_6x_reference: test
mem_boundary4_ctop_dispatch_at_least_1_1x_reference: test
snoop_miss_fast_path_within_1_10x_reference: test
solo_block_dispatch_at_least_1_5x_reference: test
LIST
  diff -u - <(ignored cobra-rt overhead_floors) <<'LIST'
osr_under_5_percent_of_a_deployment_tick: test
verify_under_5_percent_of_a_deployment_tick: test
LIST
  floor() { cargo test --release -p "$1" --test "$2" -- --ignored --nocapture --exact "$3"; }
  floor cobra-machine engine_floors solo_block_dispatch_at_least_1_5x_reference
  floor cobra-machine engine_floors arith4_sampled_batch_at_least_1_6x_reference
  floor cobra-machine engine_floors snoop_miss_fast_path_within_1_10x_reference
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
# description: crates/harness/tests/decisions_pinned.rs holds fig5 on both
# machines, with and without --candidates, to the text under tests/golden/.
decisions-pinned() {
  cargo test --release -p cobra-harness --test decisions_pinned -- --ignored
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
