#!/usr/bin/env bash
# CI gate: formatting, lints (warnings are errors), the full test suite,
# the separately-workspaced benchmark package, and the smoke tests. Runs
# fully offline (see README "Offline builds").
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy --workspace (deny warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo clippy: SAFETY comments on unsafe blocks (runtime + pal + core + mpc + api)"
# The crates holding the raw-pointer object model, the SPSC byte rings,
# the serializer that reads and writes objects by raw address, the
# transport that posts raw windows and the typed layer over it must
# justify every unsafe block (`--no-deps`: the flag would otherwise reach
# the path dependencies of the five, which are not held to it yet).
cargo clippy -p motor-runtime -p motor-pal -p motor-core -p motor-mpc -p motor-api \
  --all-targets --no-deps -- -D warnings -D clippy::undocumented-unsafe-blocks

echo "==> cargo test --workspace"
cargo test --workspace -q

echo "==> sanitizer filters name tests that exist (sanitizers.yml)"
# Neither Miri nor TSan runs here, so a stale name in a nightly filter
# would silently run nothing there. Every `cargo test` / `cargo miri
# test` line of the workflow is replayed as a plain `cargo test ...
# --list` (sanitizer flags and the target dropped): cargo must accept it,
# and each filter must match at least one test it lists.
awk '
  { line = $0; sub(/^[[:space:]]*(run:[[:space:]]*)?/, "", line) }
  cont { buf = buf " " line } !cont { buf = line }
  buf ~ /\\$/ { sub(/\\$/, "", buf); cont = 1; next }
  { cont = 0 }
  sub(/^cargo (miri )?test /, "", buf) { print buf }
' .github/workflows/sanitizers.yml | while read -ra words; do
  args=(test) filters=() skip_next=0 after_dashes=0
  for w in "${words[@]}"; do
    if [ "$skip_next" -eq 1 ]; then skip_next=0; continue; fi
    case "$w" in
      -Z*) ;;
      --target) skip_next=1 ;;
      --) after_dashes=1 ;;
      -*) args+=("$w") ;;
      *)
        if [ "${args[${#args[@]}-1]:-}" = -p ] || [ "${args[${#args[@]}-1]:-}" = --test ]; then
          args+=("$w")
        else
          filters+=("$w")
        fi
        ;;
    esac
  done
  [ "$after_dashes" -eq 1 ] || [ "${#filters[@]}" -le 1 ] || {
    echo "sanitizers.yml: cargo takes one filter before '--': cargo test ${words[*]}" >&2
    exit 1
  }
  listed="$(cargo "${args[@]}" -q -- --list "${filters[@]}" 2>/dev/null)" || {
    echo "sanitizers.yml: cargo rejects: cargo test ${words[*]}" >&2
    exit 1
  }
  for f in "${filters[@]}"; do
    if ! echo "$listed" | grep ': test$' | grep -q -F -- "$f"; then
      echo "sanitizers.yml: filter '$f' matches no test in: cargo test ${words[*]}" >&2
      exit 1
    fi
  done
done

echo "==> benchmark package builds against the stack (--smoke)"
# benchmark/ is a workspace of its own — the benchmark pipeline builds it
# from its checkout — so nothing above compiles it. A change to the
# stack's public surface that breaks it must fail this gate, not the
# pipeline; `--smoke` is the one mode a debug build is allowed to run.
cargo run --offline --manifest-path benchmark/Cargo.toml -- --smoke > /dev/null

echo "==> whole-program IL lint gate (motor-analyze lint)"
# motor-lint over the in-tree IL corpus: every module must come back
# with zero definite diagnostics (cross-rank match checking, request
# linearity, escape proofs), and the demo must still diagnose its
# seeded deadlock — exit 1 on either regression.
cargo run -q -p motor-bench --bin motor-analyze -- lint
cargo run -q -p motor-bench --bin motor-analyze -- demo > /dev/null

echo "==> sim conformance suite (fixed seed matrix)"
# Deterministic-simulation gate: the MPI-semantics conformance suite over
# fault-injecting links, pinned to the frozen seed matrix so a mutation
# caught once stays caught on every run. A failure prints its seed and
# the one-line repro command (MOTOR_SIM_SEEDS=<seed> cargo test ...). The
# suite runs optimised: its 64-rank collective point is release-only.
MOTOR_SIM_SEEDS="1,7,42,1234,0xdeadbeef,0x5eed5eed" \
  cargo test -q -p motor-sim
MOTOR_SIM_SEEDS="1,7,42,1234,0xdeadbeef,0x5eed5eed" \
  cargo test -q --release --test sim_conformance

echo "==> matcher depth sweep (16 / 256 / 4096 outstanding receives)"
# The keyed match queues must cost the same lookup at any depth: at most
# two match attempts per message with 16, 256 and 4 096 directed receives
# outstanding, posted first or arrived first. Part of the suite above;
# named so that the gate says which property broke.
cargo test -q --test mpc_property matcher::matcher_depth_sweep

echo "==> trace export smoke test (4 ranks)"
# Record a 4-rank cluster trace, then verify the exported Chrome-trace
# JSON parses and contains at least one matched message edge by feeding
# it back through `motor-trace summary`.
trace_out="$(mktemp -t motor-trace.XXXXXX.json)"
flight_out="$(mktemp -t motor-flight.XXXXXX.json)"
trap 'rm -rf "$trace_out" "$flight_out"' EXIT
cargo run -q -p motor-bench --bin motor-trace -- record "$trace_out" --ranks 4
summary="$(cargo run -q -p motor-bench --bin motor-trace -- summary "$trace_out")"
echo "$summary" | head -n 1
edges="$(echo "$summary" | sed -n 's/.* \([0-9][0-9]*\) message edges.*/\1/p')"
if [ -z "$edges" ] || [ "$edges" -lt 1 ]; then
  echo "trace smoke test: expected >= 1 message edge, got '${edges:-parse failure}'" >&2
  exit 1
fi

echo "==> progress engine smoke test (MOTOR_PROGRESS env plumbing)"
# The same 4-rank trace workload with the asynchronous progress engine
# switched on through the environment variable — the no-rebuild path
# deployments use. The engine must complete the run and still produce
# matched message edges; the conformance suite is then narrowed to the
# same mode on two frozen seeds. (The full suites run in both modes as
# part of `cargo test --workspace` above.)
MOTOR_PROGRESS=thread \
  cargo run -q -p motor-bench --bin motor-trace -- record "$trace_out" --ranks 4 \
  > /dev/null
mode_summary="$(cargo run -q -p motor-bench --bin motor-trace -- summary "$trace_out")"
mode_edges="$(echo "$mode_summary" | sed -n 's/.* \([0-9][0-9]*\) message edges.*/\1/p')"
if [ -z "$mode_edges" ] || [ "$mode_edges" -lt 1 ]; then
  echo "progress smoke test (thread): expected >= 1 message edge, got '${mode_edges:-parse failure}'" >&2
  exit 1
fi
MOTOR_PROGRESS=thread MOTOR_SIM_SEEDS="1,0x5eed5eed" \
  cargo test -q --test progress_conformance > /dev/null
# The default mode — no helper, the same pass and the same wait — on the
# frozen seeds: the default schedule's determinism and the `off` soups.
MOTOR_PROGRESS=off MOTOR_SIM_SEEDS="1,7,42,1234,0xdeadbeef,0x5eed5eed" \
  cargo test -q --test progress_conformance --test progress_property > /dev/null

echo "==> doctor smoke test (4 ranks, injected deadlock)"
# A 4-rank run where the last rank posts a receive nobody will send to.
# The watchdog must diagnose it, write a flight record and abort with
# exit code 86 well inside the hard timeout (the timeout is the backstop
# against the doctor itself deadlocking).
doctor_bin="target/debug/motor-trace"
cargo build -q -p motor-bench --bin motor-trace
rm -f "$flight_out"
set +e
timeout 60 "$doctor_bin" doctor "$flight_out" --ranks 4 --inject-deadlock
doctor_rc=$?
set -e
if [ "$doctor_rc" -ne 86 ]; then
  echo "doctor smoke test: expected abort code 86, got $doctor_rc" >&2
  exit 1
fi
if ! grep -q '"motor_flight_record":1' "$flight_out"; then
  echo "doctor smoke test: flight record missing or malformed" >&2
  exit 1
fi
if ! grep -q '"deadlock_suspect"' "$flight_out"; then
  echo "doctor smoke test: flight record does not name the deadlock" >&2
  exit 1
fi

echo "==> live telemetry smoke test (4 ranks, scraped mid-run)"
# Hold a 4-rank workload open for a few seconds with the telemetry
# endpoint up, then attach motor-top to it while it runs: `--once` must
# validate /metrics against the exposition format and render every rank;
# `--raw healthz` must report ok. /healthz reports the doctor's anomaly
# list, so the doctor runs too: "ok" then means the watchdog found
# nothing. The timeout is the backstop against the held workload never
# finishing.
cargo build -q -p motor-top
top_bin="target/debug/motor-top"
telemetry_addr="127.0.0.1:9613"
MOTOR_DOCTOR=1 MOTOR_TELEMETRY="addr=$telemetry_addr,interval_ms=50" \
  timeout 120 "$doctor_bin" record "$trace_out" --ranks 4 --hold-ms 6000 &
record_pid=$!
top_ok=0
for _ in $(seq 1 40); do
  if screen="$("$top_bin" "$telemetry_addr" --once 2>/dev/null)" \
     && echo "$screen" | grep -q "rank 3"; then
    top_ok=1
    break
  fi
  sleep 0.25
done
if [ "$top_ok" -ne 1 ]; then
  echo "telemetry smoke test: motor-top --once never rendered all 4 ranks" >&2
  kill "$record_pid" 2>/dev/null || true
  exit 1
fi
if ! "$top_bin" "$telemetry_addr" --raw healthz | grep -q '"status":"ok"'; then
  echo "telemetry smoke test: /healthz not ok mid-run" >&2
  kill "$record_pid" 2>/dev/null || true
  exit 1
fi
# One writer, one reader: what the server writes for /frames and /flight
# must read back through the reader motor-top renders from.
for endpoint in frames flight; do
  if ! "$top_bin" "$telemetry_addr" --raw "$endpoint" --check; then
    echo "telemetry smoke test: /$endpoint does not read back through motor-top's reader" >&2
    kill "$record_pid" 2>/dev/null || true
    exit 1
  fi
done
wait "$record_pid"

echo "==> MOTOR_* spec keys are strict (MOTOR_DOCTOR=bogus=1 must fail, naming the key)"
# A mistyped liveness gate must not quietly run the defaults.
set +e
bogus_err="$(MOTOR_DOCTOR=bogus=1 "$doctor_bin" record "$trace_out" --ranks 2 2>&1 >/dev/null)"
bogus_rc=$?
set -e
if [ "$bogus_rc" -eq 0 ] || ! echo "$bogus_err" | grep -q 'MOTOR_DOCTOR.*"bogus"'; then
  echo "spec smoke test: MOTOR_DOCTOR=bogus=1 exited $bogus_rc: $bogus_err" >&2
  exit 1
fi

echo "==> scripts/loc.sh skips each #[cfg(test)] item, not the rest of the file"
# A test-only `use` and a test-only `impl` (with braces in a string, a
# character literal and a comment) above live code: 5 of the 16 lines
# are live.
loc_fixture="$(mktemp -t motor-loc.XXXXXX.rs)"
cat > "$loc_fixture" <<'FIXTURE'
use std::fmt;
#[cfg(test)]
use tests::pause;
#[cfg(test)]
impl Foo {
    fn brace(&self) -> char {
        let _s = "}}";
        '}' // }
    }
}
pub struct Foo;
pub fn live() -> char {
    '{'
}
#[cfg(test)]
mod tests {}
FIXTURE
loc_count="$(scripts/loc.sh "$loc_fixture" | awk 'END { print $1 }')"
rm -f "$loc_fixture"
if [ "$loc_count" != 5 ]; then
  echo "loc.sh self-test: expected 5 live lines, counted '$loc_count'" >&2
  exit 1
fi

echo "==> non-test Rust lines per crate, and the observability plane (scripts/loc.sh)"
scripts/loc.sh

echo "OK"
