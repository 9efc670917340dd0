#!/usr/bin/env bash
# Tier-1 gate: everything a PR must keep green.
#
#   ./scripts/ci.sh          # build + tests + benchmark smoke + clippy
#
# Runs entirely offline — the workspace's only non-std dependencies are
# the vendored path crates under vendor/.
set -euo pipefail
cd "$(dirname "$0")/.."

# Every temp file, the disk tier and the serve socket live under one
# directory. The one exit trap kills a still-running jmake-serve (a
# failed step under `set -e` would otherwise leave it behind) and
# removes the directory.
WORK="$(mktemp -d)"
SERVE_PID=""
cleanup() {
  if [ -n "$SERVE_PID" ] && kill -0 "$SERVE_PID" 2>/dev/null; then
    kill "$SERVE_PID" 2>/dev/null || true
    wait "$SERVE_PID" 2>/dev/null || true
  fi
  rm -rf "$WORK"
}
trap cleanup EXIT

echo "==> cargo build --release --workspace"
cargo build --release --workspace

echo "==> cargo test -q (workspace)"
# Includes tests/counts.rs, the perf gate: it pins the standard window's
# exact work (make invocations and virtual µs, cache hits and misses,
# lint evaluations), so a cache, memo or lint that stops doing its job
# fails on any machine, however fast.
cargo test --workspace -q

echo "==> equivalence properties at 5,000 cases (release)"
# The workspace run above gives each property 64 cases. The copy-on-write
# macro table, the byte-level preprocessor kernels (lex, logical_lines,
# comment_scan, validate, directive), the worklist Kconfig lints and the
# readers of the conditional branch tree (classifier, precheck, presence
# conditions) replace simpler code whose results they must reproduce
# exactly, so their equivalence properties (against a plain map model,
# the char-level kernels and the directive-stack walks kept as test
# references, and the old round-by-round fixed points) get a deeper run
# here.
# The mutation engine's placement properties run at the same depth.
PROPTEST_CASES=5000 cargo test --release -q -p jmake-cpp -p jmake-kconfig \
  -p jmake-core -p jmake-reach -- equivalent mutated_source_is_preprocessable \
  minimized_plan_is_no_larger_than_naive

echo "==> benchmark smoke test (benchmark/ builds against the crates' current API)"
# benchmark/ is its own Cargo workspace, so the workspace build above does
# not compile it: a crate API change that breaks benchmark/src/layers.rs
# fails here instead of on the next benchmark run.
cargo test --offline -q --manifest-path benchmark/Cargo.toml

echo "==> cargo fmt --check (every package but jmake-kbuild and jmake-kconfig)"
# The packages that are rustfmt-clean stay that way; jmake-kbuild and
# jmake-kconfig are not formatted yet, so the check is per package.
cargo fmt -p jmake -p jmake-cpp -p jmake-core -p jmake-reach -p jmake-fix -p jmake-bench \
  -p jmake-diff -p jmake-vcs -p jmake-synth -p jmake-janitor -p jmake-faults \
  -p jmake-trace -p jmake-serve -- --check

echo "==> cargo clippy --all-targets -- -D warnings (workspace)"
cargo clippy --workspace --all-targets -- -D warnings -D clippy::redundant_clone \
  -D clippy::needless_pass_by_value -D clippy::manual_let_else

echo "==> cargo doc --no-deps (RUSTDOCFLAGS=-D warnings: broken intra-doc links fail)"
# The vendored offline stand-ins (rand/proptest) are excluded: they
# mimic external APIs and are not part of this repo's doc surface.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps -q \
  --exclude rand --exclude proptest

echo "==> object-cache identity run (cached vs uncached reports)"
CACHED_OUT="$WORK/eval-cached.out"
UNCACHED_OUT="$WORK/eval-uncached.out"
# Same window with every host-side acceleration on (config cache +
# object cache + preprocess memo, the defaults) and with all of them
# off: every table, figure, and summary line must be byte-identical —
# the caches may only change wall-clock time.
./target/release/jmake-eval --commits 120 --workers 8 all > "$CACHED_OUT"
./target/release/jmake-eval --commits 120 --workers 1 \
  --no-object-cache --no-shared-cache \
  --no-preproc-cache all > "$UNCACHED_OUT"
diff -u "$UNCACHED_OUT" "$CACHED_OUT"

echo "==> coverage-config identity run (--coverage, cached vs uncached reports)"
# The coverage phase solves its reach analyzer on a scratch engine and
# charges only its trials to the clock, so its reports must be just as
# independent of worker count and cache mode.
./target/release/jmake-eval --commits 120 --workers 8 --coverage all > "$WORK/cov-cached.out"
./target/release/jmake-eval --commits 120 --workers 1 \
  --no-object-cache --no-shared-cache \
  --no-preproc-cache --coverage all > "$WORK/cov-uncached.out"
diff -u "$WORK/cov-uncached.out" "$WORK/cov-cached.out"

echo "==> cross-check smoke run (static reachability vs mutation coverage)"
CC_A="$WORK/crosscheck-a.json"
CC_B="$WORK/crosscheck-b.json"
# The static analyzer and the mutation pipeline must never provably
# disagree (jmake-eval exits non-zero on any discrepancy), and the
# discrepancy report must be byte-identical across worker counts and
# cache modes — it contains no wall-clock and no nondeterminism.
./target/release/jmake-eval --commits 120 --workers 8 --cross-check > "$CC_A"
./target/release/jmake-eval --commits 120 --workers 1 \
  --no-object-cache --no-shared-cache --cross-check > "$CC_B"
diff -u "$CC_A" "$CC_B"
grep -q '"clean": true' "$CC_A"

echo "==> remediation smoke run (--fix: verified deltas, zero disagreements)"
FIX_A="$WORK/fix-a.json"
FIX_B="$WORK/fix-b.json"
# Every missed line must be root-caused without contradicting the dynamic
# classifier, and every emitted config delta must survive its single-trial
# verification re-run (jmake-eval exits non-zero on either failure). The
# report must be byte-identical across worker counts and cache modes.
./target/release/jmake-eval --commits 120 --workers 8 --fix > "$FIX_A"
./target/release/jmake-eval --commits 120 --workers 1 \
  --no-object-cache --no-shared-cache \
  --no-preproc-cache --fix > "$FIX_B"
diff -u "$FIX_A" "$FIX_B"
grep -q '"clean": true' "$FIX_A"
grep -q '"verification_failures": 0' "$FIX_A"
# With --fix off the reports must carry no trace of the remediator — the
# identity runs above double as the fix-off byte-baseline.
if grep -q 'FIX:' "$CACHED_OUT"; then
  echo "fix-off report mentions remediations:" >&2
  exit 1
fi

echo "==> full-window oracle sweep (--cross-check --fix, 1,200 commits x 3 seeds)"
SWEEP_OUT="$WORK/sweep.json"
# The 120-commit smoke runs above see too few patches to hit every
# disagreement class; at full-window scale both oracles must still be
# clean (exit 0) and every emitted delta must survive verification.
for seed in 319123704645 1 2; do
  ./target/release/jmake-eval --commits 1200 --seed "$seed" --workers 2 \
    --cross-check --fix > "$SWEEP_OUT"
  grep -q '"verification_failures": 0' "$SWEEP_OUT"
done

echo "==> coverage superset run (--coverage --fix, 1,200 commits, default seed)"
COVFIX_OUT="$WORK/coverage-fix.json"
# --coverage tries every reach witness --fix would minimize, so on the
# coverage run's leftovers --fix must find no delta left to emit (and,
# as everywhere, no disagreement and no failed verification).
./target/release/jmake-eval --commits 1200 --workers 2 --coverage --fix > "$COVFIX_OUT"
grep -q '"verification_failures": 0' "$COVFIX_OUT"
grep -q '"deltas_emitted": 0' "$COVFIX_OUT"

echo "==> trace smoke run (jmake-eval --trace + trace-check, object cache on)"
TRACE_FILE="$WORK/trace.jsonl"
./target/release/jmake-eval --commits 120 --trace "$TRACE_FILE" --metrics summary > /dev/null
# The file must parse line-by-line against the documented schema, and
# every stage name must be one of the documented thirteen.
./target/release/jmake-eval trace-check "$TRACE_FILE" | tee "$WORK/trace-check.out"
for stage in $(awk 'NR > 1 { print $1 }' "$WORK/trace-check.out"); do
  case "$stage" in
    checkout|show|check|mutation_plan|config_solve|build_i|build_o|classify|remediate|retry|timeout|quarantine|portfolio) ;;
    *) echo "unexpected stage name in trace: $stage" >&2; exit 1 ;;
  esac
done

echo "==> persistent-tier identity run (cold vs warm --cache-dir reports)"
CACHE_DIR="$WORK/cache-dir"
COLD_OUT="$WORK/eval-cold.out"
WARM_OUT="$WORK/eval-warm.out"
WARM_ERR="$WORK/eval-warm.err"
# A cold run populates the disk tier; a warm run must load it, report a
# non-zero object-cache hit count, and print byte-identical tables —
# the tier may only move host-side time, never simulated results.
./target/release/jmake-eval --commits 120 --workers 8 \
  --cache-dir "$CACHE_DIR" all > "$COLD_OUT"
./target/release/jmake-eval --commits 120 --workers 8 \
  --cache-dir "$CACHE_DIR" --stats all > "$WARM_OUT" 2> "$WARM_ERR"
diff -u "$COLD_OUT" "$WARM_OUT"
grep -q "disk cache: loaded" "$WARM_ERR"
grep -q "object cache" "$WARM_ERR"
if grep -Eq "object cache +0\.0% hit rate" "$WARM_ERR"; then
  echo "warm --cache-dir run never hit the loaded tier:" >&2
  cat "$WARM_ERR" >&2
  exit 1
fi

echo "==> jmake-serve smoke run (daemon report vs local jmake-eval, then drain)"
SERVE_SOCK="$WORK/serve.sock"
SERVED_OUT="$WORK/served.out"
./target/release/jmake-serve --socket "$SERVE_SOCK" --parallel 2 &
SERVE_PID=$!
for _ in $(seq 1 100); do [ -S "$SERVE_SOCK" ] && break; sleep 0.1; done
# The served report must be byte-identical to the local run above.
./target/release/jmake-serve --client "$SERVE_SOCK" \
  --commits 120 --workers 8 all > "$SERVED_OUT"
diff -u "$COLD_OUT" "$SERVED_OUT"
./target/release/jmake-serve --client "$SERVE_SOCK" --shutdown
wait "$SERVE_PID"

echo "==> fault-injection smoke run (--faults transient:0.2 --fault-seed 7)"
FAULT_ERR="$WORK/faults.err"
# Every commit must produce exactly one outcome even under injected
# faults, and at a 20% transient rate bounded retry must recover every
# single one — no patch may go unreported or degrade.
./target/release/jmake-eval --commits 120 --workers 8 \
  --faults transient:0.2 --fault-seed 7 --stats summary > /dev/null 2> "$FAULT_ERR"
grep -q "fault recovery: injected" "$FAULT_ERR"
if grep -q "did not produce a report" "$FAULT_ERR"; then
  echo "fault smoke run left commits without an outcome:" >&2
  cat "$FAULT_ERR" >&2
  exit 1
fi

echo "==> portfolio smoke run (--portfolio 4: coverage beyond allyes, byte-identity)"
PF_A="$WORK/portfolio-a.json"
PF_B="$WORK/portfolio-b.json"
# A K=4 seeded portfolio must strictly beat the allyes-only baseline
# (covered > allyes ⇔ covered_conditional > 0, and randconfig members
# must certify tokens allyes missed), and the report must be
# byte-identical across worker counts and cache modes — selection is a
# pure function of (tree, arch, K, seed).
./target/release/jmake-eval --commits 120 --workers 8 \
  --portfolio 4 --rand-seed 1 > "$PF_A"
./target/release/jmake-eval --commits 120 --workers 1 \
  --no-object-cache --no-shared-cache \
  --no-preproc-cache --portfolio 4 --rand-seed 1 > "$PF_B"
diff -u "$PF_A" "$PF_B"
extract_pf() { sed -n "s/.*\"$2\": \([0-9]*\).*/\1/p" "$1" | head -n 1; }
PF_COND="$(extract_pf "$PF_A" covered_conditional)"
PF_RAND="$(extract_pf "$PF_A" by_rand)"
if [ -z "$PF_COND" ] || [ "$PF_COND" -eq 0 ]; then
  echo "portfolio covered no conditional lines beyond allyes:" >&2
  cat "$PF_A" >&2
  exit 1
fi
if [ -z "$PF_RAND" ] || [ "$PF_RAND" -eq 0 ]; then
  echo "portfolio randconfig members certified no tokens:" >&2
  cat "$PF_A" >&2
  exit 1
fi
echo "    portfolio covers $PF_COND conditional line(s), $PF_RAND token(s) via randconfig"

echo "==> tier-1 gate passed"
