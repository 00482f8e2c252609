#!/usr/bin/env bash
# The full local CI gate, in fail-fast order: cheapest checks first.
#
#   ./scripts/ci.sh            # everything
#
# Mirrors what a hosted pipeline would run; each step is independently
# runnable (see README "Correctness tooling").
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --all --check"
cargo fmt --all --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> et-lint (L1-L14 workspace rules, budget ${LINT_BUDGET_SECS:=60}s)"
# Build first so the budget bounds analysis time, not rustc time. The lint
# walks + lexes + parses the whole workspace and links the call graph on
# every run; if it creeps past the wall-clock budget it stops being a
# run-on-every-push gate, so that creep fails CI loudly (DESIGN.md §12.5).
cargo build -q --release -p et-lint
LINT_T0=$(date +%s)
./target/release/et-lint
LINT_ELAPSED=$(( $(date +%s) - LINT_T0 ))
echo "    et-lint wall clock: ${LINT_ELAPSED}s (budget ${LINT_BUDGET_SECS}s)"
if [ "$LINT_ELAPSED" -gt "$LINT_BUDGET_SECS" ]; then
  echo "FATAL: et-lint took ${LINT_ELAPSED}s, over the ${LINT_BUDGET_SECS}s budget" >&2
  echo "       (profile the walker/parser or raise LINT_BUDGET_SECS with a reason)" >&2
  exit 1
fi

echo "==> HOTPATH.json cost report is current (DESIGN.md §14)"
# The checked-in hot-path budget must match what the lint derives from the
# sources: any new allocation/lock/IO reachable from a [[hot]] root — even
# a vetted one — moves the counts and shows up as a diff here, so cost
# changes are reviewed like API changes. Deterministic: no timestamps.
HOTPATH_TMP="$(mktemp /tmp/et-hotpath.XXXXXX.json)"
./target/release/et-lint --cost-report > "$HOTPATH_TMP"
if ! diff -u HOTPATH.json "$HOTPATH_TMP"; then
  echo "FATAL: HOTPATH.json is stale — the hot-path cost profile changed" >&2
  echo "       regenerate: ./target/release/et-lint --cost-report > HOTPATH.json" >&2
  echo "       then review the diff like any other contract change" >&2
  rm -f "$HOTPATH_TMP"
  exit 1
fi
rm -f "$HOTPATH_TMP"

echo "==> cargo doc --workspace --no-deps (warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc -q --workspace --no-deps

echo "==> cargo test --workspace"
cargo test --workspace -q

echo "==> et-serve bins + server integration + event-loop transport tests"
cargo build -q --release -p et-serve --bins
cargo test -q -p et-serve --test server_integration
cargo test -q -p et-serve --test framing_props
cargo test -q -p et-serve --test event_loop

echo "==> crash-injection recovery (kill -9 through the real serve binary, budget ${CRASH_BUDGET_SECS:=120}s)"
# On non-unix hosts the test itself prints SKIPPED and passes vacuously;
# here the wall clock is bounded so a hung recovery cannot wedge the gate.
if command -v timeout >/dev/null 2>&1; then
  if ! timeout "${CRASH_BUDGET_SECS}" cargo test -q -p et-serve --test crash_recovery; then
    echo "FATAL: crash_recovery failed or exceeded ${CRASH_BUDGET_SECS}s" >&2
    exit 1
  fi
else
  echo "    timeout(1) unavailable: running crash_recovery unbounded"
  cargo test -q -p et-serve --test crash_recovery
fi

echo "==> bench harness compiles + bench_json smoke (quick profile)"
# Beyond "the baseline regenerates", the quick profile gates the delta
# rescoring path on both fixtures (Hospital and Tax): if re-folding only
# the changed-FD pairs is ever slower than a full rescore, the cache is
# broken (or stale-slot thrash crept in) and CI should say so before a
# checked-in BENCH diff has to. A served round asks the scorer only about
# the live (unshown) pool ids, so the delta walk over the live list must
# be no slower than the same walk over the whole pool. It also gates the
# held-out evaluation: both per-round predict_labels passes over the
# packed tuple codes must stay at least 3x faster than the same passes
# over FD-major flags. And it gates reply encoding: one served round's
# pairs and status replies, streamed straight into bytes, must stay at
# least 1.5x faster than the same replies built as a JSON tree and
# rendered to a String. And it gates session create: the Hospital-1000
# candidate pool, enumerated with the first-occurrence test over cached
# row classes, must stay at least 3x faster than the same enumeration
# deduplicated through a hash set, and its word-parallel first-visit test
# on classes of 32 rows or more at least 1.5x faster than the per-pair
# test on every class; on OMDB-160, whose classes stay nearly all below
# that switch, the pool build must keep at least 0.9x the per-pair
# build's speed (pools checked equal before timing). And it gates the
# capped-space scoring pass: counting agreeing pairs once per attribute set must stay at least
# 2x faster than the per-FD walk over the same cached partitions. And it
# gates the create's regrouping: the injector's dense group_by must stay
# at least 2x faster than the SipHash grouping it replaced, and the
# learner's data-estimate prior, counted per symbol, at least 3x faster
# than the same prior through the hash-and-sort g1_of. And it gates the
# round's policy: a StochasticBR select_round, which maps scores and builds
# the softmax once per violation class, must stay at least 2x faster than
# the same policy computed per candidate (picks and h_policy bits are
# checked equal before timing). And it gates the status reply: a 150-round
# Hospital status written from the session's cached MAE history, caught up
# by one new round, must stay at least 2x faster than encoding the whole
# series through Response::SessionStatus (bytes checked equal first). And it
# gates the restart: over 16 journaled OMDB-160 sessions, registering them
# at start (store construction plus recover_from_disk) must stay at least
# 10x faster than the same start followed by one status per session, which
# revives each (every revived status is checked against its pre-restart
# bytes first); readiness must not wait on the sessions' rebuilds. And it
# gates a session's memory: the heap bytes one served Hospital-1000 session
# keeps at round 300, counted by the binary's allocator, must let at least
# 1890 such sessions fit in a GiB. The count is deterministic, so the floor
# sits just under the recorded value and may only rise.
cargo build -q --release -p et-bench --benches --bins
BENCH_OUT="$(mktemp /tmp/et-bench-substrate.XXXXXX.json)"
if ! ./target/release/bench_json --quick --out "$BENCH_OUT" \
  --gate round_latency_delta_vs_full_speedup:1.0 \
  --gate round_latency_delta_vs_full_speedup_tax:1.0 \
  --gate round_latency_live_vs_pool_speedup:1.0 \
  --gate alloc_free_score_parity:0.95 \
  --gate eval_packed_vs_fdmajor_speedup:3 \
  --gate reply_encode_stream_vs_tree_speedup:1.5 \
  --gate pool_build_vs_hashset_speedup:3 \
  --gate pool_build_wordmask_vs_pairwise_speedup:1.5 \
  --gate pool_build_small_class_parity:0.9 \
  --gate space_capped_vs_per_fd_speedup:2 \
  --gate group_by_dense_vs_hash_speedup:2 \
  --gate g1_counter_vs_sort_speedup:3 \
  --gate policy_class_vs_candidate_speedup:2 \
  --gate status_encode_cached_vs_full_speedup:2 \
  --gate restart_ready_vs_revive_all_speedup:10 \
  --gate sessions_per_gib_round300:1890 \
  || [ ! -s "$BENCH_OUT" ]; then
  echo "FATAL: bench_json failed to produce $BENCH_OUT or a gate failed" >&2
  echo "       (baseline unregenerable, delta rescoring lost to a full rescore," >&2
  echo "        the live-id delta walk lost to the whole-pool walk, the" >&2
  echo "        alloc-free scoring path fell below parity, the packed" >&2
  echo "        evaluation lost its 3x lead over FD-major flags, streamed" >&2
  echo "        reply encoding lost its 1.5x lead over the JSON tree, the" >&2
  echo "        pool build lost its 3x lead over the hash-set enumeration," >&2
  echo "        the word-mask first-visit test lost its 1.5x lead over the per-pair" >&2
  echo "        one, the OMDB-160 pool build fell below 0.9x of the per-pair build," >&2
  echo "        the per-set space scorer lost its 2x lead over the per-FD walk," >&2
  echo "        dense group_by lost its 2x lead over the SipHash grouping," >&2
  echo "        the counter-walk prior lost its 3x lead over the sorted one," >&2
  echo "        the class-keyed policy lost its 2x lead over the per-candidate one," >&2
  echo "        the cached-history status lost its 2x lead over the full encode, or" >&2
  echo "        registering journaled sessions lost its 10x lead over reviving them all," >&2
  echo "        or a served Hospital-1000 session at round 300 grew past 1 GiB / 1890)" >&2
  exit 1
fi
rm -f "$BENCH_OUT"

echo "==> every example runs to completion"
# Clippy only compiles the examples; running them catches a tour that
# panics. All of them together take well under a second in release.
cargo build -q --release --examples
for example in examples/*.rs; do
  name="$(basename "$example" .rs)"
  echo "    $name"
  "./target/release/examples/$name" > /dev/null
done

echo "==> repro --all --digest matches REPRO_DIGEST.txt"
# The reproduction is deterministic, so its output is a gate: one FNV-1a 64
# digest per CSV artifact plus one for the stdout report (timing and
# output-path lines excluded). A change that means to alter a trajectory
# regenerates the file and says why in CHANGES.md:
#   ./target/release/repro --all --digest > REPRO_DIGEST.txt
DIGEST_TMP="$(mktemp /tmp/et-repro-digest.XXXXXX.txt)"
./target/release/repro --all --digest > "$DIGEST_TMP"
if ! diff -u REPRO_DIGEST.txt "$DIGEST_TMP"; then
  echo "FATAL: repro output no longer matches REPRO_DIGEST.txt" >&2
  echo "       (a paper table, figure CSV or report line changed)" >&2
  rm -f "$DIGEST_TMP"
  exit 1
fi
rm -f "$DIGEST_TMP"

echo "==> bench_serve smoke (quick profile, budget ${SERVE_BENCH_BUDGET_SECS:=90}s)"
# The serving benchmark must stay regenerable AND the event loop must
# complete the load it is offered: at the top rung (128 mostly-idle
# connections) at least 99% of the offered rounds finish inside the window.
# The event shards run every round to completion themselves (the 4 workers
# only build sessions), so this gates the shards' round capacity. The wall
# clock is bounded so a wedged shard cannot hang the gate.
SERVE_OUT="$(mktemp /tmp/et-bench-serve.XXXXXX.json)"
BENCH_SERVE_CMD=(./target/release/bench_serve --quick --out "$SERVE_OUT"
  --gate event_offered_load_completion:0.99)
if command -v timeout >/dev/null 2>&1; then
  BENCH_SERVE_CMD=(timeout "${SERVE_BENCH_BUDGET_SECS}" "${BENCH_SERVE_CMD[@]}")
else
  echo "    timeout(1) unavailable: running bench_serve unbounded"
fi
if ! "${BENCH_SERVE_CMD[@]}" || [ ! -s "$SERVE_OUT" ]; then
  echo "FATAL: bench_serve failed, exceeded ${SERVE_BENCH_BUDGET_SECS}s, or a gate failed" >&2
  echo "       (BENCH_serve.json unregenerable, or the event shards, which serve" >&2
  echo "        every round, completed under 99% of the load offered at the top" >&2
  echo "        connection count)" >&2
  exit 1
fi
rm -f "$SERVE_OUT"

echo "==> invariant-checks feature armed (facade + gated crates)"
cargo test -q --features invariant-checks
cargo test -q -p et-fd --features invariant-checks
cargo test -q -p et-belief --features invariant-checks
cargo test -q -p et-core --features invariant-checks

# --- Sanitizer passes (nightly-only; skipped loudly when unavailable) ----
#
# ThreadSanitizer needs -Zsanitizer=thread plus an explicit --target, and
# -Cunsafe-allow-abi-mismatch=sanitizer because the prebuilt std/panic_unwind
# were not compiled under the sanitizer. A separate CARGO_TARGET_DIR keeps
# instrumented artifacts out of the normal build cache.
tsan_probe() {
  command -v rustup >/dev/null 2>&1 || return 1
  rustup run nightly rustc --version >/dev/null 2>&1 || return 1
  echo 'fn main() {}' | rustup run nightly rustc \
    -Zsanitizer=thread -Cunsafe-allow-abi-mismatch=sanitizer \
    --edition 2021 -o /tmp/et-tsan-probe - >/dev/null 2>&1
}
if tsan_probe; then
  echo "==> ThreadSanitizer: et-serve server integration suite"
  # Suppressions cover the known false-positive classes of the prebuilt
  # (uninstrumented) std — see scripts/tsan-suppressions.txt. With rust-src
  # installed, dropping them and adding -Zbuild-std is the stronger run.
  TSAN_TARGET="$(rustup run nightly rustc -vV | sed -n 's/^host: //p')"
  RUSTFLAGS="-Zsanitizer=thread -Cunsafe-allow-abi-mismatch=sanitizer" \
    TSAN_OPTIONS="suppressions=$(pwd)/scripts/tsan-suppressions.txt" \
    CARGO_TARGET_DIR=target/tsan \
    cargo +nightly test -q -p et-serve --test server_integration \
    --target "$TSAN_TARGET"
  echo "==> ThreadSanitizer: et-serve event-loop transport suite"
  # Shards run rounds and hand creates to the workers, whose replies come
  # back over the per-shard completion channels; the event-loop suite
  # drives those crossings under the race detector.
  RUSTFLAGS="-Zsanitizer=thread -Cunsafe-allow-abi-mismatch=sanitizer" \
    TSAN_OPTIONS="suppressions=$(pwd)/scripts/tsan-suppressions.txt" \
    CARGO_TARGET_DIR=target/tsan \
    cargo +nightly test -q -p et-serve --test event_loop \
    --target "$TSAN_TARGET"
  echo "==> ThreadSanitizer: et-fd shared partition cache (concurrent index/matrix builders)"
  # A session shares its PartitionCache through an Arc, is built on a
  # worker and then served by whichever shard its connection lands on, so
  # concurrent builders must not race on it.
  RUSTFLAGS="-Zsanitizer=thread -Cunsafe-allow-abi-mismatch=sanitizer" \
    TSAN_OPTIONS="suppressions=$(pwd)/scripts/tsan-suppressions.txt" \
    CARGO_TARGET_DIR=target/tsan \
    cargo +nightly test -q -p et-fd --test shared_cache \
    --target "$TSAN_TARGET"
else
  echo "==> ThreadSanitizer: SKIPPED (nightly toolchain with -Zsanitizer=thread not available)"
fi

# Miri interprets the store/json unit tests for UB; -Zmiri-disable-isolation
# lets Instant::now() through. Needs the miri component on nightly.
if command -v rustup >/dev/null 2>&1 \
  && rustup run nightly cargo miri --version >/dev/null 2>&1; then
  echo "==> Miri: et-serve store/json unit tests"
  MIRIFLAGS="-Zmiri-disable-isolation" \
    cargo +nightly miri test -q -p et-serve --lib store:: json::
else
  echo "==> Miri: SKIPPED (miri component not installed on nightly)"
fi

echo "CI gate passed."
