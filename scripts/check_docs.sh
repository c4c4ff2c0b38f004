#!/usr/bin/env bash
# Docs-drift gate: every `--flag` the user-facing docs mention must be
# registered by some binary's CliParser (util/cli.hpp add_* call) or some
# Python script's argparse add_argument call.
# Catches docs that keep documenting flags a later PR deleted (the
# --llc-bytes/--llc-mb drift this gate was born from). Source-grep
# based — no build needed, so the CI format job can run it.
#
# Second gate, same spirit, run both ways: every `spkadd_*` metric name
# the docs mention must appear as a string literal somewhere under src/,
# and every `"spkadd_*"` string literal under src/ must be named in
# docs/OBSERVABILITY.md. Renaming, adding or deleting a metric family
# without updating docs/OBSERVABILITY.md fails here, not in an
# operator's broken dashboard.
#
# Third gate: every backticked file name the docs mention (*.json, *.sh,
# *.hpp, *.cpp, *.py, *.yml, *.md) must be a tracked path or a trailing
# part of one (`bench_smoke.sh` for scripts/bench_smoke.sh; `*` globs).
# Deleting or renaming a file while a doc still names it fails here.
# Files CI only uploads as workflow artifacts are never in the tree; they
# are allowlisted below, and every doc line naming one must say it is an
# artifact, so no doc can list one as committed.
#
# Fourth gate: every backticked code identifier the docs mention — a
# `::`-qualified name (checked by its last component), a snake_case name
# or a kConstant, with a trailing `()` stripped — must occur as a whole
# word in the code: src/, bench/, tests/, examples/, scripts/, perfbench/
# or the root CMakeLists.txt (which alone defines the SPKADD_* build
# options). `spkadd_*` names are left to the metric gate. Renaming a
# function or type while a doc still names it fails here.
#
# Scope: README.md and docs/*.md (CHANGES.md / ISSUE.md are history,
# not documentation — old flag names there are fine).
set -euo pipefail

cd "$(dirname "$0")/.."

docs="README.md"
if ls docs/*.md > /dev/null 2>&1; then
  docs="$docs $(ls docs/*.md | tr '\n' ' ')"
fi

# Flags registered in source. Registrations can wrap across lines
# (clang-format), so flatten each file before matching
#   add_int("rows", ...) / add_flag( "pin", ...) / add_int_list("shards",
#   add_argument("--seed", ...)
tmp="$(mktemp)"
trap 'rm -f "$tmp"' EXIT
git ls-files -co --exclude-standard '*.cpp' '*.hpp' '*.py' |
  while read -r f; do
    [ -f "$f" ] || continue  # staged deletions still list here
    tr '\n' ' ' < "$f"
    printf '\n'
  done |
  grep -ohE -e 'add_(int|double|flag|string|int_list)\( *"[a-zA-Z0-9_-]+"' \
            -e 'add_argument\( *"--[a-zA-Z0-9_-]+"' |
  sed -E 's/.*"-*([^"]+)"$/\1/' | sort -u > "$tmp"

# Flags no binary registers itself but that are still real:
#   help               generated by CliParser for every binary
#   output-on-failure  ctest's flag, quoted in the build instructions
#   build              cmake --build, quoted in the build instructions
allowlist="help
output-on-failure
build"

fail=0
# shellcheck disable=SC2086
for flag in $(grep -ohE -- '--[a-z][a-z0-9-]+' $docs | sed 's/^--//' |
              sort -u); do
  if grep -qx -- "$flag" <<< "$allowlist"; then continue; fi
  if ! grep -qx "$flag" "$tmp"; then
    # shellcheck disable=SC2086
    where="$(grep -ln -- "--$flag" $docs | tr '\n' ' ')"
    echo "STALE FLAG: --$flag documented in ${where}but registered nowhere"
    fail=1
  fi
done

# Metric-name drift: `spkadd_*` tokens in the docs must be emitted by
# the source. Suffixes the exposition derives (_bucket/_sum/_count and
# the JSON digest's _p50/_p99/_max) are stripped before matching.
metrics_src="$(mktemp)"
trap 'rm -f "$tmp" "$metrics_src"' EXIT
grep -ohE '"spkadd_[a-z0-9_]+"' -r src | tr -d '"' | sort -u \
  > "$metrics_src"

metric_count=0
for metric in $(grep -ohE 'spkadd_[a-z0-9_]+' $docs | sort -u); do
  metric_count=$((metric_count + 1))
  base="$(echo "$metric" |
          sed -E 's/_(bucket|sum|count|p50|p99|max)$//')"
  if ! grep -qx "$metric" "$metrics_src" &&
     ! grep -qx "$base" "$metrics_src"; then
    # shellcheck disable=SC2086
    where="$(grep -ln -- "$metric" $docs | tr '\n' ' ')"
    echo "STALE METRIC: $metric documented in ${where}but emitted nowhere" \
         "under src/"
    fail=1
  fi
done

# The reverse direction: every family src/ emits is documented. A name
# counts as documented when docs/OBSERVABILITY.md carries it verbatim or
# with a derived suffix (a histogram's _bucket, say).
obs_doc="docs/OBSERVABILITY.md"
obs_names="$(grep -ohE 'spkadd_[a-z0-9_]+' "$obs_doc" | sort -u)"
obs_bases="$(sed -E 's/_(bucket|sum|count|p50|p99|max)$//' <<< "$obs_names")"
emitted_documented=0
while IFS= read -r metric; do
  if grep -qxF -- "$metric" <<< "$obs_names" ||
     grep -qxF -- "$metric" <<< "$obs_bases"; then
    emitted_documented=$((emitted_documented + 1))
  else
    where="$(grep -rlF -- "\"$metric\"" src | tr '\n' ' ')"
    echo "UNDOCUMENTED METRIC: $metric emitted in ${where}but missing" \
         "from $obs_doc"
    fail=1
  fi
done < "$metrics_src"

# File-name drift. Names CI uploads as artifacts but never commits:
artifacts="BENCH_service_tN.json
BENCH_obs.json"

tracked="$(git ls-files)"
path_count=0
# shellcheck disable=SC2086
while IFS= read -r name; do
  path_count=$((path_count + 1))
  if grep -qxF -- "$name" <<< "$artifacts"; then
    # shellcheck disable=SC2086
    if grep -nF -- "\`$name\`" $docs | grep -vi 'artifact'; then
      echo "ARTIFACT NAMED AS A FILE: $name is a CI artifact, never" \
           "committed; the line(s) above must say so"
      fail=1
    fi
    continue
  fi
  found=0
  while IFS= read -r path; do
    # Unquoted $name: `*` in a documented name is a glob.
    # shellcheck disable=SC2053
    if [[ "$path" == $name || "$path" == */$name ]]; then
      found=1
      break
    fi
  done <<< "$tracked"
  if [ "$found" -eq 0 ]; then
    # shellcheck disable=SC2086
    where="$(grep -lF -- "$name" $docs | tr '\n' ' ')"
    echo "STALE PATH: $name documented in ${where}but no tracked file" \
         "has that path"
    fail=1
  fi
done < <(grep -ohE '`[^`]+`' $docs |
         grep -oE '[A-Za-z0-9_./*-]+\.(json|sh|hpp|cpp|py|yml|md)\b' |
         sed 's|^\./||' | sort -u)

# Code-identifier drift.
# shellcheck disable=SC2207
code_files=($(git ls-files -co --exclude-standard src bench tests examples \
                scripts perfbench CMakeLists.txt))
ident_count=0
while IFS= read -r ident; do
  ident_count=$((ident_count + 1))
  if ! grep -qwF -- "${ident##*::}" "${code_files[@]}"; then
    # shellcheck disable=SC2086
    where="$(grep -lF -- "\`$ident" $docs | tr '\n' ' ')"
    echo "STALE IDENTIFIER: $ident documented in ${where}but found" \
         "nowhere in the code"
    fail=1
  fi
done < <(grep -ohE '`[^`]+`' $docs | tr -d '`' | sed -E 's/\(\)$//' |
         grep -xE -e '([A-Za-z_][A-Za-z0-9_]*::)+[A-Za-z_][A-Za-z0-9_]*' \
                  -e '[A-Za-z][A-Za-z0-9]*(_[A-Za-z0-9]+)+' \
                  -e 'k[A-Z][A-Za-z0-9]*' |
         grep -vE '(^|::)spkadd_' | sort -u)

if [ "$fail" -eq 0 ]; then
  echo "OK: every documented flag is registered ($(wc -l < "$tmp")" \
       "registered, docs: $docs)"
  echo "OK: every documented metric name is emitted" \
       "($metric_count documented, $(wc -l < "$metrics_src") in src/)"
  echo "OK: every metric name src/ emits is documented in $obs_doc" \
       "($emitted_documented/$(wc -l < "$metrics_src"))"
  echo "OK: every documented file name is tracked or a CI artifact" \
       "($path_count documented)"
  echo "OK: every documented code identifier occurs in the code" \
       "($ident_count documented)"
fi
exit "$fail"
