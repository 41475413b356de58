#!/usr/bin/env bash
# Diffs what two builds print: every fig*, table1_cooperation, ablation_* and
# example_* binary runs once from each build directory, and the outputs must
# match line for line. This is the check for a change that must not move a
# result bit (a refactor, a deletion): build the parent commit beside the
# change and run
#
#   tools/compare_outputs.sh PARENT_BUILD BUILD
#
# example_fleet runs as `12 2 3` and `2000 4 3`. Lines that report the host
# rather than the simulation are dropped before the diff: example_fleet's
# wall-time, worker-count, per-worker load and trace-streamed lines, and
# ablation_plan_payoff's timing columns (off_ns, on_ns, on/off, rule_ns) and
# its timing summary; that binary's shape columns and `rule` column stay. A
# binary's exit status is part of its output.
#
# Binaries present in only one build are listed and skipped. Exits 1 on any
# difference, 2 on a usage error.
set -euo pipefail

if [[ $# -ne 2 || ! -d "$1" || ! -d "$2" ]]; then
  echo "usage: $0 PARENT_BUILD BUILD" >&2
  exit 2
fi
parent="$(cd "$1" && pwd)"
build="$(cd "$2" && pwd)"
scratch="$(mktemp -d)"
trap 'rm -rf "$scratch"' EXIT

# Reads one binary's output on stdin and prints the part that must match.
normalize() {
  case "$1" in
    example_fleet)
      grep -vE 'wall time|tap workers|worker |trace streamed' || true
      ;;
    ablation_plan_payoff)
      # Table rows (| a | b | ...) and csv rows (a,b,...): keep the first
      # five columns and the rule (the ninth); the summary's counts are
      # timings too.
      awk '
        /^summary:/ { exit }
        /^\|/ {
          n = split($0, f, "|")
          print "|" f[2] "|" f[3] "|" f[4] "|" f[5] "|" f[6] "|" f[10] "|"
          next
        }
        /^# csv/ { csv = 1 }
        csv && /,/ {
          n = split($0, f, ",")
          print f[1] "," f[2] "," f[3] "," f[4] "," f[5] "," f[9]
          next
        }
        { print }
      '
      ;;
    *)
      cat
      ;;
  esac
}

# Runs `dir/name args...` in the scratch directory and writes its normalized
# output, then its exit status, to `out`.
run_one() {
  local dir="$1" name="$2" out="$3"
  shift 3
  local status=0
  (cd "$scratch" && "$dir/$name" "$@") > "$out.raw" 2>&1 || status=$?
  normalize "$name" < "$out.raw" > "$out"
  echo "[exit $status]" >> "$out"
}

names="$( (cd "$parent" && ls) ; (cd "$build" && ls) )"
names="$(printf '%s\n' "$names" |
         grep -E '^(fig[0-9].*|table1_cooperation|ablation_.*|example_.*)$' | sort -u)"

failed=0
compared=0
for name in $names; do
  if [[ ! -x "$parent/$name" || ! -x "$build/$name" ]]; then
    [[ -x "$parent/$name" ]] && side="$parent" || side="$build"
    echo "only in $side: $name"
    continue
  fi
  if [[ "$name" == example_fleet ]]; then
    arg_sets=("12 2 3" "2000 4 3")
  else
    arg_sets=("")
  fi
  for args in "${arg_sets[@]}"; do
    label="$name${args:+ $args}"
    # shellcheck disable=SC2086  # The argument sets split on spaces.
    run_one "$parent" "$name" "$scratch/a" $args
    # shellcheck disable=SC2086
    run_one "$build" "$name" "$scratch/b" $args
    compared=$((compared + 1))
    if diff -u --label "$parent: $label" --label "$build: $label" \
         "$scratch/a" "$scratch/b"; then
      echo "same: $label"
    else
      failed=1
    fi
  done
done

echo "compared $compared runs"
if [[ $failed -ne 0 ]]; then
  echo "outputs differ" >&2
  exit 1
fi
