#!/usr/bin/env sh
# One-shot static-analysis wrapper: reproduces the lint / clang-format /
# clang-tidy CI legs locally.
#
#   tools/check.sh             # lint self-test + tree lint + format check
#   tools/check.sh --layering  # only the module-DAG layering rule
#   tools/check.sh --headers   # also build the header-hermeticity target
#                              # (needs a configured build/ directory)
#   tools/check.sh --tidy      # also run clang-tidy (needs a configured
#                              # build with -DCMAKE_EXPORT_COMPILE_COMMANDS=ON)
#
# Exits non-zero on the first failing layer. Layers whose tool is not
# installed are skipped with a notice (the container ships without clang
# tools; CI runs them with pinned versions).
set -u

root="$(cd "$(dirname "$0")/.." && pwd)"
run_tidy=0
run_headers=0
layering_only=0
for arg in "$@"; do
  case "$arg" in
    --tidy) run_tidy=1 ;;
    --headers) run_headers=1 ;;
    --layering) layering_only=1 ;;
    -h|--help)
      sed -n '2,14p' "$0" | sed 's/^# \{0,1\}//'
      exit 0
      ;;
    *)
      echo "check.sh: unknown argument '$arg' (try --help)" >&2
      exit 2
      ;;
  esac
done

fail=0

if [ "$layering_only" -eq 1 ]; then
  echo "== volut_lint layering =="
  python3 "$root/tools/volut_lint/volut_lint.py" --root "$root" \
    --only layering || fail=1
  if [ "$fail" -ne 0 ]; then
    echo "check.sh: FAILED" >&2
    exit 1
  fi
  echo "check.sh: layering clean"
  exit 0
fi

echo "== volut_lint self-test =="
python3 "$root/tools/volut_lint/volut_lint.py" --self-test || fail=1

echo "== volut_lint tree =="
python3 "$root/tools/volut_lint/volut_lint.py" --root "$root" || fail=1

echo "== clang-format =="
if command -v clang-format >/dev/null 2>&1; then
  # Same file set as the CI job: *.cc, *.h and *.cpp under src/ tests/
  # bench/ examples/ (tools/ holds lint fixtures that are never formatted).
  (cd "$root" && find src tests bench examples \
    \( -name '*.cc' -o -name '*.h' -o -name '*.cpp' \) -print0 |
    xargs -0 clang-format --dry-run --Werror) || fail=1
else
  echo "clang-format not installed — skipped (CI runs it)"
fi

if [ "$run_headers" -eq 1 ]; then
  echo "== header hermeticity =="
  if [ ! -d "$root/build" ]; then
    echo "build/ missing — configure with: cmake -B build -S ." >&2
    fail=1
  else
    # Parallel like the ctest entry: one job per core, capped at 8.
    jobs="$(nproc 2>/dev/null || echo 1)"
    [ "$jobs" -gt 8 ] && jobs=8
    cmake --build "$root/build" --target volut_header_hermeticity \
      --parallel "$jobs" || fail=1
  fi
fi

if [ "$run_tidy" -eq 1 ]; then
  echo "== clang-tidy =="
  if ! command -v clang-tidy >/dev/null 2>&1; then
    echo "clang-tidy not installed — skipped (CI runs it)" >&2
  elif [ ! -f "$root/build/compile_commands.json" ]; then
    echo "build/compile_commands.json missing — configure with" >&2
    echo "  cmake -B build -S . -DCMAKE_EXPORT_COMPILE_COMMANDS=ON" >&2
    fail=1
  else
    runner="$(command -v run-clang-tidy || true)"
    if [ -n "$runner" ]; then
      "$runner" -p "$root/build" -quiet \
        "src/.*\.cc$|tools/capture_fleet_golden\.cc$" || fail=1
    else
      (cd "$root" && git ls-files 'src/*.cc' 'tools/capture_fleet_golden.cc' |
        xargs clang-tidy -p "$root/build" --quiet) || fail=1
    fi
  fi
fi

if [ "$fail" -ne 0 ]; then
  echo "check.sh: FAILED" >&2
  exit 1
fi
echo "check.sh: all layers clean"
