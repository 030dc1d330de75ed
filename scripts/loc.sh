#!/usr/bin/env bash
# Non-test Rust lines: for every source file, the lines before its first
# `#[cfg(test)]`. Directories named tests/, benches/ and benchmark/ do not
# count. With no arguments prints one row per crate, a total, and the
# observability plane's subtotal (crates obs, top and profile plus
# core's telemetry.rs and doctor.rs); with file arguments prints one row
# per file and their sum, so a "this PR removes N lines" claim is read
# off one command on both commits.
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
plane="$(count crates/core/src/telemetry.rs crates/core/src/doctor.rs)"
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
  case "$dir" in
    crates/obs | crates/top | crates/profile) plane=$((plane + n)) ;;
  esac
done
printf '%7d  total\n' "$total"
printf '%7d  plane\n' "$plane"
