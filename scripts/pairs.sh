#!/usr/bin/env bash
# Alternating benchmark pairs: scripts/pairs.sh BASE N WORKLOAD
#
# Runs `bench/run.sh --workload WORKLOAD` N times on the committed files
# of BASE (any git revision, extracted with git archive into a temporary
# directory, as a fresh checkout would see them) and N times on the
# working tree, alternating which side goes first in each pair. Then it
# prints, for each end-to-end metric, the two medians, the interquartile
# range of BASE's runs, the pairs the working tree won, and whether the
# claim rule holds: the working tree wins at least 9 of every 10 pairs
# and its median is better than BASE's by more than BASE's interquartile
# range. Then the failed operations of each side. The per-run result
# lines stay in the directory it names at the end. `make pairs BASE=…
# N=… WORKLOAD=…` runs it.
set -euo pipefail
if [ $# -ne 3 ]; then
  echo "usage: $0 BASE N WORKLOAD" >&2
  exit 2
fi
base="$1" n="$2" workload="$3"
root="$(git -C "$(dirname "${BASH_SOURCE[0]}")" rev-parse --show-toplevel)"
rev="$(git -C "$root" rev-parse --verify "$base^{commit}")"
out="$(mktemp -d "${TMPDIR:-/tmp}/pairs.XXXXXX")"
checkout="$out/base"
trap 'rm -rf "$checkout"' EXIT
mkdir "$checkout"
git -C "$root" archive "$rev" | tar -x -C "$checkout"

# run SIDE DIR I: one run of the workload in DIR; its result object,
# the last line bench/run.sh prints, goes to $out/SIDE.jsonl.
run() {
  local line
  if ! line="$(bash "$2/bench/run.sh" --workload "$workload" --trace 0 2>>"$out/$1.err" | tail -n 1)"; then
    echo "pairs: run $3 of $1 exited non-zero (see $out/$1.err)" >&2
  fi
  echo "$line" >>"$out/$1.jsonl"
  echo "pairs: $workload run $3 $1: $line" >&2
}

for i in $(seq 1 "$n"); do
  if [ $((i % 2)) -eq 1 ]; then
    run base "$checkout" "$i"
    run change "$root" "$i"
  else
    run change "$root" "$i"
    run base "$checkout" "$i"
  fi
done

# value FILE METRIC: the metric of each run in FILE, one a line.
value() {
  sed -n "s/.*\"$2\":{\"value\":\([^,}]*\).*/\1/p" "$1"
}

echo "$workload: $n pairs, base $(git -C "$root" rev-parse --short "$rev") against the working tree"
printf '%-12s %14s %14s %14s %8s %7s  %s\n' metric base_median change_median base_iqr change delta claim
for m in setup_s:lower ops_per_s:higher lat_p50_ms:lower rss_mb:lower; do
  name="${m%%:*}" better="${m##*:}"
  paste <(value "$out/base.jsonl" "$name") <(value "$out/change.jsonl" "$name") |
    awk -v name="$name" -v better="$better" -v n="$n" '
      # q: the p-quantile of the sorted a[1..k], statistics.quantiles
      # exclusive method (position (k+1)p, clamped to the ends).
      function q(a, k, p,   h, i) {
        h = (k + 1) * p
        if (h <= 1) return a[1]
        if (h >= k) return a[k]
        i = int(h)
        return a[i] + (h - i) * (a[i + 1] - a[i])
      }
      function sort(a, k,   i, j, t) {
        for (i = 2; i <= k; i++)
          for (j = i; j > 1 && a[j - 1] > a[j]; j--) { t = a[j]; a[j] = a[j - 1]; a[j - 1] = t }
      }
      {
        k++; b[k] = $1; c[k] = $2
        if ((better == "higher" && $2 > $1) || (better == "lower" && $2 < $1)) wins++
      }
      END {
        sort(b, k); sort(c, k)
        mb = q(b, k, 0.5); mc = q(c, k, 0.5); iqr = q(b, k, 0.75) - q(b, k, 0.25)
        gain = better == "higher" ? mc - mb : mb - mc
        claim = (10 * wins >= 9 * k && gain > iqr) ? "holds" : "no"
        printf "%-12s %14.4f %14.4f %14.4f %5d/%-2d %+6.1f%%  %s\n", name, mb, mc, iqr, wins, k, 100 * (mc - mb) / mb, claim
      }'
done
for side in base change; do
  failed="$(sed -n 's/.*"failed":\([0-9]*\).*/\1/p' "$out/$side.jsonl" | awk '{s += $1} END {print s + 0}')"
  correct="$(grep -c '"correct":true' "$out/$side.jsonl" || true)"
  echo "$side: failed $failed, correct in $correct of $n runs"
done
echo "result lines: $out/base.jsonl, $out/change.jsonl"
