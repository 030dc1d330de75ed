#!/usr/bin/env bash
# Non-test Rust lines: for every source file, the lines before its first
# `#[cfg(test)]`. Directories named tests/, benches/ and benchmark/ do not
# count. With no arguments prints one row per crate and a total; with
# file arguments prints one row per file and their sum, so a "this PR
# removes N lines" claim is read off one command on both commits.
set -euo pipefail
cd "$(dirname "$0")/.."

count() {
  awk 'FNR == 1 { live = 1 } /^[[:space:]]*#\[cfg\(test\)\]/ { live = 0 } live { n++ } END { print n + 0 }' "$@"
}

if [ "$#" -gt 0 ]; then
  for f in "$@"; do
    printf '%7d  %s\n' "$(count "$f")" "$f"
  done
  printf '%7d  total\n' "$(count "$@")"
  exit 0
fi

total=0
for dir in . crates/* shims/*; do
  [ -f "$dir/Cargo.toml" ] || continue
  if [ "$dir" = . ]; then
    files="$(find src examples -name '*.rs' 2>/dev/null | sort)"
  else
    files="$(find "$dir" -name '*.rs' \
      -not -path '*/tests/*' -not -path '*/benches/*' -not -path '*/target/*' | sort)"
  fi
  [ -n "$files" ] || continue
  # shellcheck disable=SC2086
  n="$(count $files)"
  printf '%7d  %s\n' "$n" "$dir"
  total=$((total + n))
done
printf '%7d  total\n' "$total"
