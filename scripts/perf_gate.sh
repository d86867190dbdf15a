#!/usr/bin/env bash
# Per-pass FM throughput regression gate.
#
#   usage: scripts/perf_gate.sh [reps]
#
# Snapshots the archived BENCH_fm.json baseline, re-runs
# examples/fm_pass_bench (which rewrites the archive in place), and
# compares every per-pass millisecond series — any gauge whose name
# contains `pass_ms` — new vs old. The series list is discovered from
# the snapshots themselves, not hardcoded, and an unmatched series in
# either direction is a hard failure: a baseline series the fresh run
# no longer reports means a bench was dropped or renamed and part of
# the hot path is silently ungated, and a fresh series the baseline
# lacks has no reference to regress against (re-seed deliberately by
# running the bench and committing the archive). Any matched series
# more than 15% slower fails the gate; every failure restores the old
# baseline so a re-run compares against the same reference, and a pass
# leaves the fresh numbers archived as the next baseline.
#
# The keys are per-pass averages, not whole-run wall times, so a
# change in pass count from algorithmic work does not masquerade as a
# throughput change. The k-way leg's pass count and device cost are
# exact series besides: a fresh run must repeat them to the digit, or
# the change altered the search (re-seed deliberately if it meant to). The 15% tolerance absorbs shared-runner noise;
# real regressions from structure changes (the CSR arenas bought 2-7x)
# clear it by an order of magnitude.
#
# Portability: bash + POSIX awk only, like scripts/strip_timing.sh —
# no jq (not in the hermetic toolchain image), no GNU-only sed flags.
set -euo pipefail

cd "$(dirname "$0")/.."

REPS="${1:-2}"
BASELINE=BENCH_fm.json
TOLERANCE=1.15
# Gauges that must repeat exactly.
EXACT_KEYS=(kway_passes_s38584 kway_cost_s38584)

if [[ ! -s "$BASELINE" ]]; then
  echo "error: no archived baseline at $BASELINE (run the bench once to seed it)" >&2
  exit 2
fi

# field <file> <key>: the numeric value of `"key": <number>` in a flat
# metrics-snapshot JSON file (keys are unique per file by construction).
# Prints nothing when the key is absent.
field() {
  awk -v key="\"$2\":" '
    index($0, key) {
      v = substr($0, index($0, key) + length(key))
      gsub(/[ ,]/, "", v)
      print v
      exit
    }' "$1"
}

# series <file>: every per-pass millisecond series in a snapshot,
# sorted — any `"…pass_ms…":` gauge key.
series() {
  awk '
    {
      s = $0
      while (match(s, /"[A-Za-z0-9_]*pass_ms[A-Za-z0-9_]*"[ ]*:/)) {
        k = substr(s, RSTART + 1)
        print substr(k, 1, index(k, "\"") - 1)
        s = substr(s, RSTART + RLENGTH)
      }
    }' "$1" | sort -u
}

old=$(mktemp)
trap 'rm -f "$old"' EXIT
cp "$BASELINE" "$old"

cargo run --release --example fm_pass_bench -- "$REPS"

mapfile -t old_keys < <(series "$old")
mapfile -t new_keys < <(series "$BASELINE")

status=0
if [[ ${#new_keys[@]} -eq 0 ]]; then
  echo "error: fresh bench run reported no pass_ms series" >&2
  status=1
fi
# Unmatched series in either direction are fatal, not seeded over.
only_old=$(comm -23 <(printf '%s\n' "${old_keys[@]-}") <(printf '%s\n' "${new_keys[@]-}"))
only_new=$(comm -13 <(printf '%s\n' "${old_keys[@]-}") <(printf '%s\n' "${new_keys[@]-}"))
if [[ -n "$only_old" ]]; then
  echo "error: baseline series missing from the fresh run (dropped or renamed bench?):" >&2
  printf '  %s\n' $only_old >&2
  status=1
fi
if [[ -n "$only_new" ]]; then
  echo "error: fresh series absent from the baseline (seed it deliberately and commit):" >&2
  printf '  %s\n' $only_new >&2
  status=1
fi

for key in "${new_keys[@]-}"; do
  [[ -n "$key" ]] || continue
  o=$(field "$old" "$key")
  n=$(field "$BASELINE" "$key")
  # Unmatched keys are already fatal above; compare only the matched.
  [[ -n "$o" && -n "$n" ]] || continue
  if awk -v n="$n" -v o="$o" -v t="$TOLERANCE" 'BEGIN { exit !(n <= o * t) }'; then
    awk -v k="$key" -v n="$n" -v o="$o" \
      'BEGIN { printf "ok: %-24s %10.3f ms/pass (baseline %10.3f)\n", k, n, o }'
  else
    awk -v k="$key" -v n="$n" -v o="$o" -v t="$TOLERANCE" \
      'BEGIN { printf "REGRESSION: %s %.3f ms/pass vs baseline %.3f (> %d%% tolerance)\n", \
               k, n, o, (t - 1) * 100 + 0.5 }' >&2
    status=1
  fi
done

for key in "${EXACT_KEYS[@]}"; do
  o=$(field "$old" "$key")
  n=$(field "$BASELINE" "$key")
  if [[ -z "$o" || -z "$n" ]]; then
    echo "error: exact series $key missing from the baseline or the fresh run" >&2
    status=1
  elif [[ "$o" != "$n" ]]; then
    echo "MISMATCH: $key $n vs baseline $o (must repeat exactly)" >&2
    status=1
  else
    echo "ok: $key $n (exact)"
  fi
done

if [[ "$status" -ne 0 ]]; then
  cp "$old" "$BASELINE"
  echo "perf gate FAILED; baseline left unchanged" >&2
  exit 1
fi
echo "perf gate passed; new baseline archived to $BASELINE"
