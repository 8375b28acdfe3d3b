#!/usr/bin/env bash
# Virtual-time drift and host-allocation gate: runs each standing workload
# once (seed 1, the shortest run the bench allows) and checks it against the
# committed scripts/bench-fingerprints.txt, one line per workload:
#
#   workload seed fingerprint attempted failed host_allocs_per_op
#
# The first five fields must match exactly. host_allocs_per_op may fall, but
# may not exceed the recorded value by more than its bound in BENCHMARK.json.
# A change that means to move virtual time, or that lowers the allocation
# count, reruns this with -update and commits the new file in the same diff.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
want="$here/bench-fingerprints.txt"

bound="$(tr -d ' \n' <"$root/BENCHMARK.json" |
  sed -n 's/.*"name":"host_allocs_per_op","unit":"[^"]*","better":"[^"]*","bound":\([0-9.]*\).*/\1/p')"
if [ -z "$bound" ]; then
  echo "bench-fingerprints: no host_allocs_per_op bound in BENCHMARK.json" >&2
  exit 2
fi

got=""
for w in ingest-steady ingest-overload cold-read fleet-mix; do
  out="$(bash "$root/bench/run.sh" -workload "$w" -seed 1 -seconds 10 2>&1)"
  fp="$(sed -n 's/^== .* fingerprint=\([0-9a-f]*\).*/\1/p' <<<"$out")"
  last="$(tail -n 1 <<<"$out")"
  counts="$(sed -n 's/^{"correct":true,"attempted":\([0-9]*\),"failed":\([0-9]*\).*/\1 \2/p' <<<"$last")"
  allocs="$(sed -n 's/.*"host_allocs_per_op":{"value":\([0-9.e+-]*\).*/\1/p' <<<"$last")"
  if [ -z "$fp" ] || [ -z "$counts" ] || [ -z "$allocs" ]; then
    echo "bench-fingerprints: the $w run did not verify or printed no fingerprint:" >&2
    cut -c1-200 <<<"$last" >&2
    exit 2
  fi
  got+="$w 1 $fp $counts $(printf '%.2f' "$allocs")"$'\n'
done

if [ "${1:-}" = "-update" ]; then
  printf '%s' "$got" >"$want"
  exit 0
fi
diff -u <(cut -d' ' -f1-5 "$want") <(printf '%s' "$got" | cut -d' ' -f1-5)
join <(cut -d' ' -f1,6 "$want" | sort) <(printf '%s' "$got" | cut -d' ' -f1,6 | sort) |
  awk -v bound="$bound" '
    { printf "%-16s host_allocs_per_op %8.2f (recorded %.2f)\n", $1, $3, $2 }
    $3 > $2 * (1 + bound) { printf "bench-fingerprints: %s allocates %.2f per op, over %.2f + %g%%\n", $1, $3, $2, bound * 100; bad = 1 }
    END { exit bad }'
