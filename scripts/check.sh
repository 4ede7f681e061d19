#!/usr/bin/env bash
# CI gate: formatting, lints, build and the full test suite.
#
# Usage: scripts/check.sh
# Runs everything offline (the workspace has no external dependencies).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy (all targets, warnings are errors)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo build (all targets)"
cargo build --workspace --all-targets

echo "==> e2ebench build (outside the workspace; it imports swt-dist types)"
CARGO_TARGET_DIR=.bench_build cargo build --release --quiet --locked --manifest-path e2ebench/Cargo.toml

echo "==> cargo test"
cargo test --workspace

echo "==> cargo test (forced scalar micro-kernel: the portable fallback must stay correct)"
SWT_FORCE_SCALAR_KERNEL=1 cargo test --workspace --quiet

echo "==> cargo doc (no deps, warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "==> print gate (library crates log via swt-obs, not stdout/stderr)"
# Binaries own stdout (figures, CSV, bench tables); library code must go
# through the swt-obs logger. Allowlisted: the logger's own stderr sink,
# the bench harness console table, and the experiments table/CSV renderer
# that the figure binaries print through.
violations=$(grep -rn 'println!\|eprintln!' crates/*/src --include='*.rs' \
  | grep -v '/src/bin/' \
  | grep -v '^crates/obs/src/log.rs:' \
  | grep -v '^crates/bench/src/lib.rs:' \
  | grep -v '^crates/experiments/src/lib.rs:' \
  || true)
if [ -n "$violations" ]; then
  echo "library code printing outside swt-obs:" >&2
  echo "$violations" >&2
  exit 1
fi

echo "==> bench_obs smoke (disabled-instrumentation overhead < 2%)"
cargo run --release --quiet -p swt-bench --bin bench_obs -- --smoke

echo "==> WTC1 -> WTC2 compatibility (legacy checkpoints stay readable)"
cargo test --release --quiet -p swt-checkpoint wtc1

echo "==> bench_ckpt smoke (transfer-path read >= 3x WTC1 full decode; NAS A/B identical)"
cargo run --release --quiet -p swt-bench --bin bench_ckpt -- --smoke

echo "==> bench_batch smoke (batched window reproduces the unbatched canonical trace)"
batch_json=$(mktemp)
cargo run --release --quiet -p swt-bench --bin bench_batch -- --smoke "$batch_json"
rm -f "$batch_json"

echo "==> bench_fidelity smoke (multi-fidelity pipeline engages: candidates pruned + prefiltered)"
fidelity_json=$(mktemp)
cargo run --release --quiet -p swt-bench --bin bench_fidelity -- --smoke "$fidelity_json"
rm -f "$fidelity_json"

echo "==> GEMM alloc gate (GEMM and conv hot paths draw from the Workspace, not the heap)"
# The blocked driver's pack buffers and the conv lowering's scratch must
# come from the caller's Workspace; a `vec!`/`Vec::new` in these files is a
# hot-loop allocation unless the line is annotated `alloc-gate: allow`
# (cold oracles like the naive reference). Each file's `mod tests` is
# exempt — tests may allocate freely.
allocs=$(awk 'FNR == 1 { in_tests = 0 }
  /^mod tests/ { in_tests = 1 }
  !in_tests && /vec!|Vec::new/ && !/alloc-gate: allow/ { print FILENAME ":" FNR ": " $0 }' \
  crates/tensor/src/matmul.rs crates/tensor/src/conv2d.rs crates/tensor/src/conv1d.rs)
if [ -n "$allocs" ]; then
  echo "heap allocation in a GEMM/conv hot path (annotate cold paths with 'alloc-gate: allow'):" >&2
  echo "$allocs" >&2
  exit 1
fi

echo "==> no-panic gate (networked code must degrade, never unwrap)"
panics=$(grep -rnE '\.unwrap\(\)|\.expect\(|panic!\(' \
  crates/dist/src crates/obs/src/serve.rs crates/wire/src crates/ckpt-server/src \
  --include='*.rs' || true)
if [ -n "$panics" ]; then
  echo "panicking call in networked code (swt-dist, swt-wire, swt-ckpt-server, live server) — degrade with errors, never panic:" >&2
  echo "$panics" >&2
  exit 1
fi

echo "==> bench_dist smoke (coordinator + 2 workers, one SIGKILLed; A/B identical to in-process)"
cargo build --release --quiet -p swt   # worker binary for the coordinator to spawn
cargo run --release --quiet -p swt-bench --bin bench_dist -- --smoke

echo "==> wire fuzz (every frame type under truncation/bit-flips/hostile prefixes)"
cargo test --release --quiet -p swt-dist --test fuzz_decode

echo "==> store wire fuzz (store frames: truncation, hostile name tables, oversized ranges)"
cargo test --release --quiet -p swt-ckpt-server --test fuzz_decode

echo "==> bench_ckptsrv smoke (selective read <= 5% of full bytes on the wire, >= 3x faster)"
cargo run --release --quiet -p swt-bench --bin bench_ckptsrv -- --smoke

echo "==> fixed-pool dist smoke (the reference trace the smokes below compare against)"
# A mid-run join is asserted by integration_elastic's late_join cell and by
# bench_dist's ab_elastic_identical gate above.
elastic_dir=$(mktemp -d)
live_dir=$(mktemp -d)
trap 'rm -rf "$elastic_dir" "$live_dir"' EXIT
./target/release/swt dist-run --app uno --scheme lcs --candidates 8 \
  --workers 2 --store "$elastic_dir/fixed_store" \
  --canonical-trace "$elastic_dir/fixed.csv" >/dev/null

echo "==> short-handed pool smoke (one process against a 2-wide window keeps the canonical trace)"
./target/release/swt dist-run --app uno --scheme lcs --candidates 8 \
  --workers 2 --initial-workers 1 \
  --store "$elastic_dir/short_store" \
  --canonical-trace "$elastic_dir/short.csv" >/dev/null
if ! cmp -s "$elastic_dir/fixed.csv" "$elastic_dir/short.csv"; then
  echo "short-handed pool smoke: canonical trace changed with a pool below the window" >&2
  diff "$elastic_dir/fixed.csv" "$elastic_dir/short.csv" >&2 || true
  exit 1
fi

echo "==> remote store smoke (dist-run over swt-ckpt-server reproduces the DirStore trace)"
ckpt_dir=$(mktemp -d)
# --max-seconds is a backstop so a failed smoke cannot leave the server behind.
./target/release/swt ckpt-server --bind 127.0.0.1:0 --spill "$ckpt_dir/spill" \
  --max-seconds 120 > "$ckpt_dir/out.txt" &
ckpt_pid=$!
srv_addr=""
for _ in $(seq 1 100); do
  srv_addr=$(sed -n 's/^ckpt-server listening on \([^ ]*\).*/\1/p' "$ckpt_dir/out.txt")
  [ -n "$srv_addr" ] && break
  sleep 0.1
done
if [ -z "$srv_addr" ]; then
  echo "remote store smoke: the server never printed its address" >&2
  kill "$ckpt_pid" 2>/dev/null || true
  exit 1
fi
./target/release/swt dist-run --app uno --scheme lcs --candidates 8 \
  --workers 2 --store "tcp://$srv_addr" \
  --canonical-trace "$ckpt_dir/remote.csv" >/dev/null
kill "$ckpt_pid" 2>/dev/null || true
if ! cmp -s "$elastic_dir/fixed.csv" "$ckpt_dir/remote.csv"; then
  echo "remote store smoke: canonical trace changed when checkpoints moved through the server" >&2
  diff "$elastic_dir/fixed.csv" "$ckpt_dir/remote.csv" >&2 || true
  exit 1
fi
rm -rf "$ckpt_dir"

echo "==> fidelity off-switch A/B (fidelity-off traces bit-identical to the pre-fidelity golden)"
./target/release/swt run --app uno --scheme lcs --candidates 8 --workers 2 \
  --canonical-trace "$elastic_dir/fidelity_off_local.csv" >/dev/null
if ! cmp -s "$elastic_dir/fidelity_off_local.csv" tests/golden/canonical_uno_lcs_c8_w2.csv; then
  echo "fidelity off-switch: in-process canonical trace drifted from the pre-fidelity golden" >&2
  diff tests/golden/canonical_uno_lcs_c8_w2.csv "$elastic_dir/fidelity_off_local.csv" >&2 || true
  exit 1
fi
# The fixed-pool dist smoke above ran the identical config through the
# dist backend; its trace must sit on the same golden bytes.
if ! cmp -s "$elastic_dir/fixed.csv" tests/golden/canonical_uno_lcs_c8_w2.csv; then
  echo "fidelity off-switch: dist canonical trace drifted from the pre-fidelity golden" >&2
  diff tests/golden/canonical_uno_lcs_c8_w2.csv "$elastic_dir/fixed.csv" >&2 || true
  exit 1
fi

echo "==> live endpoint smoke (/status answers mid-run; /metrics counters match report.json)"
# The multi-fidelity flags both lengthen the run enough for the poller to
# catch it mid-flight (a plain 12-candidate quick run now finishes in
# ~100 ms) and exercise the fidelity stop counters over the wire.
./target/release/swt dist-run --app uno --scheme lcs --candidates 16 \
  --epochs 4 --rungs 2,4 --eta 2 --prefilter 0.25 \
  --workers 2 --store "$live_dir/store" --serve 127.0.0.1:0 \
  --report "$live_dir/report.json" > "$live_dir/out.txt" &
live_pid=$!
# The run picks a free port and prints the live URL; wait for it.
addr=""
for _ in $(seq 1 100); do
  addr=$(sed -n 's|^live: http://\([^/]*\)/status.*|\1|p' "$live_dir/out.txt")
  [ -n "$addr" ] && break
  sleep 0.1
done
if [ -z "$addr" ]; then
  echo "live smoke: the run never printed its live URL" >&2
  kill "$live_pid" 2>/dev/null || true
  exit 1
fi
# Poll /status until every connected worker has streamed telemetry
# (workers are listed, and none is still at frames:0), grabbing /metrics
# in the same breath so both captures are genuinely mid-run.
ok=""
metrics=""
for _ in $(seq 1 400); do
  status=$(./target/release/swt dist-top --addr "$addr" --fetch /status 2>/dev/null || true)
  if echo "$status" | grep -q '"frames":' && ! echo "$status" | grep -q '"frames":0[,}]'; then
    metrics=$(./target/release/swt dist-top --addr "$addr" --fetch /metrics 2>/dev/null || true)
    [ -n "$metrics" ] && ok=1 && break
  fi
  sleep 0.05
done
wait "$live_pid"
if [ -z "$ok" ]; then
  echo "live smoke: workers never reported over /status (or /metrics never answered)" >&2
  exit 1
fi
if ! echo "$status" | grep -q '"stopped"'; then
  echo "live smoke: /status workers are missing the stop-reason count object" >&2
  exit 1
fi
# Every counter family the live endpoint exported must exist in the
# final merged report -- the stream may be stale, never invented.
missing=""
for name in $(echo "$metrics" | sed -n 's/^swt_counter{name="\([^"]*\)".*/\1/p' | sort -u); do
  grep -q "\"$name\"" "$live_dir/report.json" || missing="$missing $name"
done
if [ -n "$missing" ]; then
  echo "live smoke: /metrics exported counters absent from report.json:$missing" >&2
  exit 1
fi

echo "OK"
