#!/usr/bin/env bash
# Determinism diff: builds rosbench and rosctl at a git ref (default HEAD) in a
# temporary worktree and from the working tree, runs the standing set of
# deterministic dumps with both builds, and prints "identical" or the diff for
# each. "(host time: ...)" lines are dropped before comparing. Exits 1 if any
# dump differs.
#
#   bash scripts/determinism-diff.sh [ref]
#
# Not a CI gate: a change that means to move a dump says so and shows the diff.
set -euo pipefail

ref="${1:-HEAD}"
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
tmp="$(mktemp -d)"
cleanup() {
  git -C "$root" worktree remove --force "$tmp/src" >/dev/null 2>&1 || true
  rm -rf "$tmp"
}
trap cleanup EXIT

git -C "$root" worktree add --detach -q "$tmp/src" "$ref"
for side in ref work; do
  src="$tmp/src"
  [ "$side" = work ] && src="$root"
  mkdir -p "$tmp/$side/out"
  (cd "$src" && go build -o "$tmp/$side/rosbench" ./cmd/rosbench && go build -o "$tmp/$side/rosctl" ./cmd/rosctl)
done

input=""  # stdin of the next dump
failed=0

# run <side> <binary> <args...>: one dump's output, host-time lines dropped,
# with the exit status as its last line. Runs in <side>/out, so a file a dump
# writes lands there.
run() {
  local side=$1 bin=$2 status=0
  shift 2
  (cd "$tmp/$side/out" && printf '%s' "$input" | "$tmp/$side/$bin" "$@") >"$tmp/raw" 2>&1 || status=$?
  grep -v '(host time:' "$tmp/raw" || true
  echo "exit status $status"
}

# compare <name> <ref file> <work file>
compare() {
  if diff -u --label "$ref: $1" --label "working tree: $1" "$2" "$3" >"$tmp/diff"; then
    echo "$1: identical"
  else
    echo "$1: DIFFERS"
    cat "$tmp/diff"
    failed=1
  fi
}

# dump <name> <binary> <args...>
dump() {
  local name=$1
  shift
  run ref "$@" >"$tmp/ref.txt"
  run work "$@" >"$tmp/work.txt"
  compare "$name" "$tmp/ref.txt" "$tmp/work.txt"
}

dump "rosbench -exp all" rosbench -exp all -plot=false
dump "rosbench -exp ablations" rosbench -exp ablations
dump "rosbench -exp ingest-smoke" rosbench -exp ingest-smoke
dump "rosbench -chaos -seed 51 (faults)" rosbench -chaos -seed 51 \
  -faults 'optical.drive.dead:every=40,count=2;optical.read:p=0.01'
dump "rosbench -chaos -overload -seed 61" rosbench -chaos -overload -seed 61
dump "rosbench -chaos -seed 7" rosbench -chaos -seed 7
dump "rosbench -chaos -seed 11 -racks 3" rosbench -chaos -seed 11 -racks 3 -json chaos.json
compare "rosbench -chaos -seed 11 -racks 3 (json)" "$tmp/ref/out/chaos.json" "$tmp/work/out/chaos.json"

input='write /a 2MB
write /b 2MB
write /c 2MB
write /d 2MB
burn
status
stats --json
quit
'
for racks in 1 3; do
  dump "rosctl -racks $racks script" rosctl -racks "$racks"
done

exit "$failed"
