#!/usr/bin/env bash
# Drives Clang Thread Safety Analysis over the annotated tree.
#
# Positive pass: every TU in src/, fuzz/ and tests/ must compile with
# -Wthread-safety -Wthread-safety-beta promoted to errors — a guarded-member
# access without its mutex, an unbalanced acquire/release, or a lock-order
# inversion against a declared APF_ACQUIRED_BEFORE edge fails the build.
#
# Negative pass: the seeded violations in tests/thread_safety_negative/
# (never part of the normal build) must be REJECTED with a thread-safety
# diagnostic, proving the analysis is actually armed rather than silently
# off. CI runs both passes as the blocking `thread-safety` job.
#
# Triage pass: when the installed clang understands -Wthread-safety-verbose
# (probed, never assumed — the flag is still maturing), a third ADVISORY
# pass re-runs the positive TU list with it and prints the analysis notes
# (which capability the analysis assumed, which expression it could not
# resolve). Verbose notes never fail the job: they exist so a developer
# staring at a confusing positive-pass diagnostic can see the analysis'
# reasoning, and so new annotation gaps surface before they bite.
#
# Usage: tools/check_thread_safety.sh [--if-available] [--negative-only]
#                                     [--verbose-triage]
#   --if-available   exit 0 instead of 3 when clang++ is not on PATH
#                    (GCC-only machines rely on tools/apf_lint instead)
#   --negative-only  run just the negative-compile assertions
#   --verbose-triage run the advisory -Wthread-safety-verbose pass too
#                    (skipped with a note when clang lacks the flag)
#
# When build/compile_commands.json exists (the top-level CMakeLists.txt
# exports it), the positive pass takes its TU list from that database — the
# same file set the build compiles and clang-tidy checks — and
# falls back to `find` otherwise.
set -u
cd "$(dirname "$0")/.."

IF_AVAILABLE=0
NEGATIVE_ONLY=0
VERBOSE_TRIAGE=0
for arg in "$@"; do
  case "$arg" in
    --if-available) IF_AVAILABLE=1 ;;
    --negative-only) NEGATIVE_ONLY=1 ;;
    --verbose-triage) VERBOSE_TRIAGE=1 ;;
    *) echo "usage: $0 [--if-available] [--negative-only]" \
            "[--verbose-triage]" >&2; exit 2 ;;
  esac
done

CLANGXX="${CLANGXX:-clang++}"
if ! command -v "$CLANGXX" >/dev/null 2>&1; then
  if [ "$IF_AVAILABLE" = 1 ]; then
    echo "check_thread_safety: $CLANGXX not found; skipping (--if-available)"
    exit 0
  fi
  echo "check_thread_safety: $CLANGXX not found; install clang or set" \
       "CLANGXX" >&2
  exit 3
fi

# Only the thread-safety groups are promoted to errors: this job proves the
# lock discipline, not clang/gcc warning parity (the build jobs own that).
FLAGS=(-std=c++20 -fsyntax-only -Isrc -I. -Itests
       -DAPF_ENABLE_DEBUG_CHECKS=1
       "-DAPF_FUZZ_CORPUS_DIR=\"fuzz/corpus\""
       -Wthread-safety -Wthread-safety-beta
       -Werror=thread-safety -Werror=thread-safety-beta)

fail=0

list_tus() {
  if [ -f "build/compile_commands.json" ] && command -v python3 >/dev/null; then
    python3 - <<'EOF'
import json, os
root = os.getcwd()
seen = set()
for e in json.load(open("build/compile_commands.json")):
    p = e["file"]
    if not os.path.isabs(p):
        p = os.path.normpath(os.path.join(e["directory"], p))
    rel = os.path.relpath(p, root)
    if rel.split(os.sep)[0] in ("src", "fuzz", "tests") and rel not in seen:
        seen.add(rel)
for rel in sorted(seen):
    print(rel)
EOF
  else
    find src fuzz tests -name '*.cpp' \
      ! -path 'tests/thread_safety_negative/*' \
      ! -path 'tests/lint_negative/*' | sort
  fi
}

if [ "$NEGATIVE_ONLY" = 0 ]; then
  while IFS= read -r tu; do
    if ! "$CLANGXX" "${FLAGS[@]}" "$tu"; then
      echo "check_thread_safety: FAIL $tu" >&2
      fail=1
    fi
  done < <(list_tus)
fi

for tu in tests/thread_safety_negative/*.cpp; do
  out=$("$CLANGXX" "${FLAGS[@]}" "$tu" 2>&1)
  if [ $? -eq 0 ]; then
    echo "check_thread_safety: NEGATIVE FAIL: $tu compiled cleanly but seeds" \
         "a violation the analysis must reject" >&2
    fail=1
  elif ! printf '%s' "$out" | grep -q "thread-safety"; then
    echo "check_thread_safety: NEGATIVE FAIL: $tu was rejected for the wrong" \
         "reason (no thread-safety diagnostic):" >&2
    printf '%s\n' "$out" >&2
    fail=1
  fi
done

# Advisory verbose triage: gated on the installed clang actually knowing the
# flag. The probe compiles an empty TU with the flag promoted to an error if
# unknown, so "supported" means supported — not "silently ignored".
if [ "$VERBOSE_TRIAGE" = 1 ]; then
  if printf 'int main(){}\n' | "$CLANGXX" -x c++ -std=c++20 -fsyntax-only \
       -Wthread-safety-verbose -Werror=unknown-warning-option - \
       >/dev/null 2>&1; then
    notes=0
    while IFS= read -r tu; do
      out=$("$CLANGXX" "${FLAGS[@]}" -Wthread-safety-verbose "$tu" 2>&1) \
        || true
      verbose_lines=$(printf '%s\n' "$out" | grep "thread-safety" || true)
      if [ -n "$verbose_lines" ]; then
        echo "check_thread_safety: verbose-triage notes for $tu:"
        printf '%s\n' "$verbose_lines"
        notes=$((notes + 1))
      fi
    done < <(list_tus)
    echo "check_thread_safety: verbose triage done (advisory," \
         "$notes TU(s) with notes)"
  else
    echo "check_thread_safety: $CLANGXX does not support" \
         "-Wthread-safety-verbose; skipping triage pass (advisory)"
  fi
fi

if [ "$fail" -ne 0 ]; then
  exit 1
fi
echo "check_thread_safety: clean"
