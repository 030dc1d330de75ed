#!/usr/bin/env bash
# Non-test Rust lines: every line of a source file except the items under
# a `#[cfg(test)]` attribute — a one-line item (`use …;`) through its end,
# a braced item (`impl`, `mod`, `fn`) through its closing brace. Braces in
# strings, character literals and `//` comments do not count. Directories
# named tests/, benches/ and benchmark/ do not count. With no arguments
# prints one row per crate, a total, and the observability plane's
# subtotal (crates obs and top plus core's telemetry.rs and doctor.rs);
# with file arguments prints one row per file and their sum, so a "this
# PR removes N lines" claim is read off one command on both commits.
set -euo pipefail
cd "$(dirname "$0")/.."

count() {
  awk '
    FNR == 1 { skip = 0 }
    !skip && /^[[:space:]]*#\[cfg\(test\)\]/ {
      skip = 1; depth = 0; opened = 0
      sub(/^[[:space:]]*#\[cfg\(test\)\][[:space:]]*/, "")
      if ($0 == "") next
    }
    skip {
      code = $0
      gsub(/\\./, "", code)
      gsub(/"[^"]*"/, "", code)
      gsub(/\x27[^\x27]\x27/, "", code)
      sub(/\/\/.*/, "", code)
      if (!opened && code ~ /^[[:space:]]*(#\[.*\])?[[:space:]]*$/) next
      opens = gsub(/\{/, "", code)
      depth += opens - gsub(/\}/, "", code)
      if (opens) opened = 1
      if (opened ? depth <= 0 : code ~ /[;,][[:space:]]*$/) skip = 0
      next
    }
    { n++ }
    END { print n + 0 }
  ' "$@"
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
    crates/obs | crates/top) plane=$((plane + n)) ;;
  esac
done
printf '%7d  total\n' "$total"
printf '%7d  plane\n' "$plane"
