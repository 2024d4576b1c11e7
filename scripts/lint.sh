#!/usr/bin/env bash
# Static-analysis gate for tacsim:
#   1. clang-tidy over src/ using .clang-tidy (skipped with a notice when
#      clang-tidy is not installed, so the script stays usable in
#      gcc-only containers).
#   2. tacsim-lint (tools/tacsim_lint.cc), the domain-aware analyzer:
#      magic-page-constant, nondeterminism-hazard, unsequenced-rng,
#      raw-assert, banned-include, hot-path-container and
#      stats-registry-coverage over src/. A finding passes only with an
#      inline `tacsim-lint: allow(<check>) <reason>`; run
#      `tacsim-lint --list-checks` for the catalog and README.md
#      ("Correctness tooling") for suppression syntax.
#
# Usage: scripts/lint.sh [build-dir]
#   build-dir (default: build) must contain compile_commands.json for
#   the clang-tidy pass (pass 1 is skipped if it is missing) and is
#   where tacsim-lint is built if not already present.
# Exits non-zero on any finding.

set -u
repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-$repo_root/build}"
status=0

# ---------------------------------------------------------------- tidy --
if command -v clang-tidy >/dev/null 2>&1; then
    if [ -f "$build_dir/compile_commands.json" ]; then
        echo "== clang-tidy (compile db: $build_dir) =="
        mapfile -t sources < <(find "$repo_root/src" -name '*.cc' | sort)
        if ! clang-tidy -p "$build_dir" --quiet "${sources[@]}"; then
            status=1
        fi
    else
        echo "!! no compile_commands.json in $build_dir — run cmake first;" \
             "skipping clang-tidy pass"
    fi
else
    echo "== clang-tidy not installed — skipping tidy pass =="
fi

# ---------------------------------------------------------- tacsim-lint --
echo "== tacsim-lint (src/) =="
lint_bin="$build_dir/tacsim-lint"
if [ ! -x "$lint_bin" ]; then
    if [ -f "$build_dir/CMakeCache.txt" ]; then
        cmake --build "$build_dir" --target tacsim-lint -j >/dev/null || {
            echo "error: failed to build tacsim-lint" >&2
            exit 2
        }
    else
        echo "error: $build_dir is not configured — run cmake first" >&2
        exit 2
    fi
fi
if ! "$lint_bin" --root "$repo_root" "$repo_root/src"; then
    status=1
fi

if [ "$status" -eq 0 ]; then
    echo "lint: clean"
else
    echo "lint: FINDINGS (see above)" >&2
fi
exit "$status"
