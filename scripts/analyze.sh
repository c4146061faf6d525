#!/usr/bin/env bash
# Static-analysis gate driver. Runs every checkable discipline over the tree
# and prints one [PASS]/[FAIL]/[SKIP] line per gate:
#
#   1. lock-lint        — scripts/lock_lint.py self-test + tree scan (Python,
#                         always runs): locking discipline that the compiler
#                         can't see (raw std primitives, orphan mutexes,
#                         unannotated guarded members, direct .lock()).
#   2. determinism-lint — scripts/determinism_lint.py self-test + tree scan
#                         (Python, always runs): random sources, unwaivered
#                         wall-clock reads, unquantized accumulation in the
#                         rasterizer/compose hot paths.
#   3. thread-safety    — clang -Wthread-safety -Werror=thread-safety over
#                         the whole library (analyze preset), POSITIVE pass,
#                         plus a NEGATIVE compile check: building the
#                         analyze_fail_thread_safety target must FAIL. If it
#                         compiles, the analysis is not actually running
#                         (wrong compiler / dropped flag / macro gate broken)
#                         and the gate fails loudly. Skipped without clang++.
#   4. clang-tidy       — curated .clang-tidy checks (warnings-as-errors)
#                         over src/ via compile_commands.json. Skipped
#                         without clang-tidy.
#   5. format           — only with --format-check: clang-format --dry-run
#                         -Werror diff mode over src/ and tests/. Skipped
#                         without clang-format.
#
# Exit status: nonzero if ANY non-skipped gate fails. Skips never fail the
# run — this machine may have GCC only — but are always printed so a CI
# reader can see which disciplines were actually enforced.
#
#   scripts/analyze.sh                 # gates 1-4
#   scripts/analyze.sh --format-check  # gates 1-5
#   scripts/analyze.sh --lint-only     # gates 1-2 (no compiler needed)
set -uo pipefail

cd "$(dirname "$0")/.."

JOBS="${JOBS:-$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 2)}"

RUN_FORMAT=0
LINT_ONLY=0
for arg in "$@"; do
  case "$arg" in
    --format-check) RUN_FORMAT=1 ;;
    --lint-only) LINT_ONLY=1 ;;
    *) echo "unknown argument: $arg (supported: --format-check, --lint-only)" >&2; exit 2 ;;
  esac
done

FAILURES=0
declare -a SUMMARY=()

pass() { SUMMARY+=("[PASS] $1"); echo "[PASS] $1"; }
fail() { SUMMARY+=("[FAIL] $1"); echo "[FAIL] $1"; FAILURES=$((FAILURES + 1)); }
skip() { SUMMARY+=("[SKIP] $1 ($2)"); echo "[SKIP] $1 ($2)"; }

# ---------------------------------------------------------------- lock-lint
echo "== gate: lock-lint =="
if python3 scripts/lock_lint.py --self-test && python3 scripts/lock_lint.py; then
  pass "lock-lint"
else
  fail "lock-lint"
fi

# --------------------------------------------------------- determinism-lint
echo "== gate: determinism-lint =="
if python3 scripts/determinism_lint.py --self-test && python3 scripts/determinism_lint.py; then
  pass "determinism-lint"
else
  fail "determinism-lint"
fi

if [[ "$LINT_ONLY" -eq 1 ]]; then
  echo "== summary =="
  printf '%s\n' "${SUMMARY[@]}"
  exit "$((FAILURES > 0 ? 1 : 0))"
fi

# ------------------------------------------------------------ thread-safety
echo "== gate: thread-safety (clang -Wthread-safety) =="
if command -v clang++ >/dev/null 2>&1; then
  if cmake --preset analyze >build-analyze-configure.log 2>&1 &&
     cmake --build --preset analyze -j "$JOBS" --target dcsn dcsn_paper >build-analyze.log 2>&1; then
    # Positive pass is clean; now the negative check. The violation TU must
    # NOT compile — a successful build means -Wthread-safety is not biting.
    if cmake --build --preset analyze -j "$JOBS" \
         --target analyze_fail_thread_safety >build-analyze-negative.log 2>&1; then
      echo "ERROR: analyze_fail_thread_safety compiled cleanly; the thread" >&2
      echo "safety analysis is not actually running (see build-analyze-negative.log)." >&2
      fail "thread-safety"
    else
      rm -f build-analyze-configure.log build-analyze.log build-analyze-negative.log
      pass "thread-safety"
    fi
  else
    echo "ERROR: analyze-preset build of dcsn failed; the tree violates the" >&2
    echo "annotated locking discipline (see build-analyze.log)." >&2
    tail -n 40 build-analyze.log 2>/dev/null >&2 || true
    fail "thread-safety"
  fi
else
  skip "thread-safety" "clang++ not installed"
fi

# --------------------------------------------------------------- clang-tidy
echo "== gate: clang-tidy =="
if command -v clang-tidy >/dev/null 2>&1; then
  # compile_commands.json is exported by every configure (CMakeLists sets
  # CMAKE_EXPORT_COMPILE_COMMANDS); prefer the default build dir, fall back
  # to a fresh release configure.
  COMPDB_DIR=""
  for d in build build-analyze build-debug; do
    if [[ -f "$d/compile_commands.json" ]]; then COMPDB_DIR="$d"; break; fi
  done
  if [[ -z "$COMPDB_DIR" ]]; then
    cmake -B build -S . >/dev/null
    COMPDB_DIR="build"
  fi
  mapfile -t TIDY_SOURCES < <(find src -name '*.cpp' | sort)
  if clang-tidy -p "$COMPDB_DIR" --quiet "${TIDY_SOURCES[@]}"; then
    pass "clang-tidy"
  else
    fail "clang-tidy"
  fi
else
  skip "clang-tidy" "clang-tidy not installed"
fi

# ------------------------------------------------------------------- format
if [[ "$RUN_FORMAT" -eq 1 ]]; then
  echo "== gate: format (clang-format --dry-run) =="
  if command -v clang-format >/dev/null 2>&1; then
    mapfile -t FMT_SOURCES < <(find src tests -name '*.cpp' -o -name '*.hpp' | sort)
    if clang-format --dry-run -Werror "${FMT_SOURCES[@]}"; then
      pass "format"
    else
      fail "format"
    fi
  else
    skip "format" "clang-format not installed"
  fi
fi

echo "== summary =="
printf '%s\n' "${SUMMARY[@]}"
if [[ "$FAILURES" -gt 0 ]]; then
  echo "analyze.sh: $FAILURES gate(s) failed" >&2
  exit 1
fi
exit 0
