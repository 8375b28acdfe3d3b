#!/usr/bin/env bash
# Orphan gate: fails if any internal/ package is imported by no other package
# of this module. Imports from test files count; a package's own external
# tests do not.
set -euo pipefail

cd "$(dirname "${BASH_SOURCE[0]}")/.."
mod="$(go list -m)"

edges='{{$p := .ImportPath}}{{range .Imports}}{{$p}} {{.}}{{"\n"}}{{end}}{{range .TestImports}}{{$p}} {{.}}{{"\n"}}{{end}}{{range .XTestImports}}{{$p}} {{.}}{{"\n"}}{{end}}'
imported="$(go list -f "$edges" ./... | awk -v pre="$mod/internal/" '$1 != $2 && index($2, pre) == 1 { print $2 }' | sort -u)"
orphans="$(comm -23 <(go list ./internal/... | sort) <(printf '%s\n' "$imported"))"

if [ -n "$orphans" ]; then
  echo "internal packages that nothing in $mod imports:" >&2
  printf '  %s\n' $orphans >&2
  exit 1
fi
