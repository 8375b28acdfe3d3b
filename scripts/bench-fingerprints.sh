#!/usr/bin/env bash
# Virtual-time drift gate: runs each standing workload once (seed 1, the
# shortest run the bench allows) and compares "workload seed fingerprint
# attempted failed" with the committed scripts/bench-fingerprints.txt. A change
# that means to move virtual time reruns this with -update and commits the new
# file in the same diff.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
want="$here/bench-fingerprints.txt"

got=""
for w in ingest-steady ingest-overload cold-read fleet-mix; do
  out="$(bash "$root/bench/run.sh" -workload "$w" -seed 1 -seconds 10 2>&1)"
  fp="$(sed -n 's/^== .* fingerprint=\([0-9a-f]*\).*/\1/p' <<<"$out")"
  counts="$(tail -n 1 <<<"$out" | sed -n 's/^{"correct":true,"attempted":\([0-9]*\),"failed":\([0-9]*\).*/\1 \2/p')"
  if [ -z "$fp" ] || [ -z "$counts" ]; then
    echo "bench-fingerprints: the $w run did not verify or printed no fingerprint:" >&2
    tail -n 1 <<<"$out" | cut -c1-200 >&2
    exit 2
  fi
  got+="$w 1 $fp $counts"$'\n'
done

if [ "${1:-}" = "-update" ]; then
  printf '%s' "$got" > "$want"
  exit 0
fi
diff -u "$want" <(printf '%s' "$got")
