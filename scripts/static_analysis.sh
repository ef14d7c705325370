#!/usr/bin/env bash
# One entry point for the repo's static gates: clang-tidy (profile in
# .clang-tidy), xlint (tools/xlint — determinism & kernel-contract
# checks), and ruff (ruff.toml) over the helper scripts.
#
#   scripts/static_analysis.sh                 # full tree
#   scripts/static_analysis.sh --changed-from origin/main
#   scripts/static_analysis.sh --strict        # missing tools = failure
#
# Changed-file mode limits clang-tidy and xlint to C++ files touched
# since the given ref (headers widen to the whole tree for xlint, whose
# class merge is cross-file). The CI static-analysis job runs --strict
# with --changed-from on pull requests and the full tree on the weekly
# schedule; see .github/workflows/ci.yml.
#
# clang-tidy results are cached under BUILD_DIR/tidy-cache keyed on the
# content hash of (the file, every header in src/, .clang-tidy), so
# unchanged files cost nothing on re-runs — CI persists that directory
# across jobs the way it persists ccache.
#
# The dev container ships only gcc: without --strict, missing tools are
# skipped with a notice and xlint (stdlib Python) remains the floor.
set -euo pipefail

cd "$(dirname "$0")/.."

BUILD_DIR=build
STRICT=0
CHANGED_FROM=""
RUN_TIDY=1
RUN_XLINT=1
RUN_RUFF=1

usage() {
  sed -n '2,19p' "$0" | sed 's/^# \{0,1\}//'
}

while [[ $# -gt 0 ]]; do
  case "$1" in
    --changed-from) CHANGED_FROM="$2"; shift 2 ;;
    --build-dir) BUILD_DIR="$2"; shift 2 ;;
    --strict) STRICT=1; shift ;;
    --no-tidy) RUN_TIDY=0; shift ;;
    --no-xlint) RUN_XLINT=0; shift ;;
    --no-ruff) RUN_RUFF=0; shift ;;
    -h|--help) usage; exit 0 ;;
    *) echo "static_analysis.sh: unknown option '$1'" >&2; usage >&2; exit 2 ;;
  esac
done

FAILED=()
SKIPPED=()

note() { echo "== static-analysis: $*"; }

missing_tool() {
  local tool="$1"
  if [[ "$STRICT" == 1 ]]; then
    note "$tool not found and --strict is set"
    FAILED+=("$tool (missing)")
  else
    note "$tool not found; skipping (xlint is the container floor)"
    SKIPPED+=("$tool")
  fi
}

# --- changed-file selection -------------------------------------------
# CHANGED_CPP: src/ .cpp files for clang-tidy. CHANGED_ANY: every changed
# C++ file under src/ and tools/ for xlint; a header change makes xlint
# run the whole tree (its module-contract merge spans files).
CHANGED_CPP=()
XLINT_ARGS=()
if [[ -n "$CHANGED_FROM" ]]; then
  mapfile -t changed < <(git diff --name-only --diff-filter=d "$CHANGED_FROM" -- \
    'src/*.cpp' 'src/*.hpp' 'src/**/*.cpp' 'src/**/*.hpp' \
    'tools/*.cpp' 'tools/*.hpp' | sort -u)
  header_changed=0
  for f in "${changed[@]}"; do
    case "$f" in
      src/*.cpp) CHANGED_CPP+=("$f") ;;
      *.cpp) ;;
      *.hpp) header_changed=1 ;;
    esac
  done
  if [[ "$header_changed" == 0 && ${#changed[@]} -gt 0 ]]; then
    XLINT_ARGS=("${changed[@]}")
  fi
  # Tooling/config changes invalidate the narrow selection entirely.
  if git diff --name-only --diff-filter=d "$CHANGED_FROM" -- \
      tools/xlint .clang-tidy | grep -q .; then
    XLINT_ARGS=()
    mapfile -t CHANGED_CPP < <(git ls-files 'src/*.cpp' 'src/**/*.cpp' | sort -u)
  fi
  note "changed-from $CHANGED_FROM: ${#changed[@]} C++ file(s)"
fi

# --- clang-tidy -------------------------------------------------------
if [[ "$RUN_TIDY" == 1 ]]; then
  if ! command -v clang-tidy >/dev/null 2>&1; then
    missing_tool clang-tidy
  else
    if [[ ! -f "$BUILD_DIR/compile_commands.json" ]]; then
      note "generating $BUILD_DIR/compile_commands.json"
      cmake -B "$BUILD_DIR" -S . -DCMAKE_EXPORT_COMPILE_COMMANDS=ON >/dev/null
    fi
    if [[ -n "$CHANGED_FROM" ]]; then
      tidy_files=("${CHANGED_CPP[@]}")
    else
      mapfile -t tidy_files < <(git ls-files 'src/*.cpp' 'src/**/*.cpp' | sort -u)
    fi
    if [[ ${#tidy_files[@]} -eq 0 ]]; then
      note "clang-tidy: nothing to do"
    else
      CACHE_DIR="$BUILD_DIR/tidy-cache"
      mkdir -p "$CACHE_DIR"
      # Key = this file + every header + the profile: header edits
      # invalidate everything (cheap and safe), file edits only that file.
      headers_hash=$(git ls-files 'src/*.hpp' 'src/**/*.hpp' | sort -u \
        | xargs cat | sha256sum | cut -d' ' -f1)
      export CACHE_DIR BUILD_DIR headers_hash
      tidy_one() {
        local f="$1"
        local key
        key=$(cat .clang-tidy "$f" <(echo "$headers_hash") | sha256sum | cut -d' ' -f1)
        if [[ -f "$CACHE_DIR/$key" ]]; then
          return 0
        fi
        if clang-tidy -p "$BUILD_DIR" --quiet "$f"; then
          touch "$CACHE_DIR/$key"
        else
          return 1
        fi
      }
      export -f tidy_one
      note "clang-tidy over ${#tidy_files[@]} file(s) (cache: $CACHE_DIR)"
      if ! printf '%s\0' "${tidy_files[@]}" \
          | xargs -0 -n1 -P "$(nproc)" bash -c 'tidy_one "$1"' _; then
        FAILED+=("clang-tidy")
      fi
    fi
  fi
fi

# --- xlint ------------------------------------------------------------
if [[ "$RUN_XLINT" == 1 ]]; then
  note "xlint (${XLINT_ARGS[*]:-full tree})"
  if ! python3 tools/xlint/xlint.py "${XLINT_ARGS[@]}"; then
    FAILED+=("xlint")
  fi
fi

# --- ruff -------------------------------------------------------------
if [[ "$RUN_RUFF" == 1 ]]; then
  if ! command -v ruff >/dev/null 2>&1; then
    missing_tool ruff
  else
    note "ruff check ."
    if ! ruff check .; then
      FAILED+=("ruff")
    fi
  fi
fi

# --- summary ----------------------------------------------------------
if [[ ${#SKIPPED[@]} -gt 0 ]]; then
  note "skipped: ${SKIPPED[*]}"
fi
if [[ ${#FAILED[@]} -gt 0 ]]; then
  note "FAILED: ${FAILED[*]}"
  exit 1
fi
note "clean"
