#!/usr/bin/env sh
# The full CI gauntlet. Everything runs offline (deps are vendored in
# vendor/); any failure fails the script.
set -eu

cd "$(dirname "$0")/.."

run() {
    echo "==> $*"
    "$@"
}

run cargo build --release --offline --workspace
run cargo test -q --offline --workspace
run cargo fmt --check
run cargo clippy --offline --workspace --all-targets -- -D warnings
# Static analysis + divergence, gated against the committed baseline:
# any finding not in AUDIT_BASELINE.json — suppressed or not — fails CI,
# so suppression creep is visible in review. The JSON report must lead
# with the registered tn-audit/v1 marker and validate against it.
audit_report=target/audit-report.json
run cargo run --release --offline -q -p tn-audit -- check \
    --json "$audit_report" --baseline AUDIT_BASELINE.json
head -1 "$audit_report" | grep -q '"schema":"tn-audit/v1"'
run cargo run --release --offline -q -p tn-audit -- schema --json "$audit_report"
# Fault-injection determinism: dual-run the degraded scenarios explicitly
# (check already covers the registry; this keeps the fault paths loud).
run cargo run --release --offline -q -p tn-audit -- divergence --filter fault
# Telemetry determinism: full observability must not move any digest.
run cargo run --release --offline -q -p tn-audit -- divergence --filter obs
# Flight-recorder determinism: recorder + profiler fully on must
# reproduce the golden quickstart digest, bit for bit.
run cargo run --release --offline -q -p tn-audit -- divergence --filter flight
run cargo run --release --offline -q -p tn-audit -- divergence --filter latency-decomposition
# tn-trace/v1 smoke: E21's JSONL leads with the schema marker.
echo "==> exp_latency_decomposition --json (tn-trace/v1 schema check)"
trace_out=target/e21-trace.jsonl
cargo run --release --offline -q -p tn-bench --bin exp_latency_decomposition -- --json \
    > "$trace_out"
head -1 "$trace_out" | grep -q '"schema":"tn-trace/v1"'
# tn-flight/v1 smoke: the timeline export of the same trace leads with
# its schema marker, and the folded-stacks rendering is byte-stable
# across two summarize runs.
echo "==> tn-obs summarize --timeline/--folded (tn-flight/v1 + stability)"
flight_out=target/e21-flight.json
cargo run --release --offline -q -p tn-obs -- summarize --timeline "$trace_out" \
    > "$flight_out"
head -1 "$flight_out" | grep -q '"schema":"tn-flight/v1"'
cargo run --release --offline -q -p tn-obs -- summarize --folded "$trace_out" \
    > target/e21-folded-1.txt
cargo run --release --offline -q -p tn-obs -- summarize --folded "$trace_out" \
    > target/e21-folded-2.txt
cmp target/e21-folded-1.txt target/e21-folded-2.txt
rm -f "$trace_out" "$flight_out" target/e21-folded-1.txt target/e21-folded-2.txt
# Fan-out properties: a reduced-case sweep of rerun identity, telemetry
# neutrality and lossless delivery (the full 64-case sweep runs with the
# workspace tests above).
echo "==> fanout_properties (reduced proptest sweep)"
PROPTEST_CASES=8 cargo test -q --offline --test fanout_properties
# Shard equivalence: sharded execution must reproduce the serial kernel
# bit-for-bit — a reduced random-topology sweep here, plus the registry
# scenarios pinning the golden quickstart digest through the sharded
# path for every shard count 1..=8.
echo "==> shard_equivalence (reduced proptest sweep)"
PROPTEST_CASES=8 cargo test -q --offline --test shard_equivalence
run cargo run --release --offline -q -p tn-audit -- divergence --filter shard
# BENCH shard smoke: serial-vs-sharded with digests asserted equal
# inside the harness. Smoke mode never writes BENCH_shard.json, so the
# committed full-scale numbers stay untouched.
run cargo run --release --offline -q -p tn-bench --bin bench_shard -- --smoke
head -1 BENCH_shard.json | grep -q '"schema":"tn-bench/v1"'
echo "==> BENCH_shard.json: tn-bench/v1 ok"
# Suppression-creep gate for the zero-alloc hot path: the retired
# hotpath-alloc suppressions must stay retired. 17 remain by design
# (cold paths: session setup, telemetry buffers); anything above that
# means an alloc crept back onto the hot path and was re-suppressed
# instead of fixed.
alloc_suppressions=$(grep -o '"lint":"hotpath-alloc"' AUDIT_BASELINE.json | wc -l)
if [ "$alloc_suppressions" -gt 17 ]; then
    echo "audit gate FAIL: $alloc_suppressions hotpath-alloc suppressions in baseline (ceiling 17)"
    exit 1
fi
echo "==> audit gate: $alloc_suppressions hotpath-alloc suppressions (ceiling 17)"
# Cloud fairness determinism: the zero-knob spec must be bit-transparent,
# the enabled mechanism set must dual-run, and the frontier point must
# reproduce the digest committed in BENCH_cloud.json (all asserted inside
# the registry runners; "cloud" also re-covers shootout-cloud).
run cargo run --release --offline -q -p tn-audit -- divergence --filter cloud
# Cloud property tests: exactly-zero spread / exact arrival-order release
# with every stochastic knob zeroed — a reduced sweep here, the full one
# runs with the workspace tests above.
echo "==> cloud_properties (reduced proptest sweep)"
PROPTEST_CASES=8 cargo test -q --offline --test cloud_properties
# E22 smoke: the fairness frontier sweep asserts its claims internally
# (cloud beats L1 only by paying >= hold; zero-hold leaks) and the JSON
# leads with the tn-exp/v1 schema marker.
echo "==> exp_cloud_fairness --smoke --json (tn-exp/v1 schema check)"
cloud_exp=target/ci-cloud-fairness.json
cargo run --release --offline -q -p tn-bench --bin exp_cloud_fairness -- --smoke --json \
    > "$cloud_exp"
head -1 "$cloud_exp" | grep -q '"schema":"tn-exp/v1"'
rm -f "$cloud_exp"
# BENCH cloud smoke: rep-determinism and the frontier claim asserted
# inside the harness; smoke never writes BENCH_cloud.json, so the
# committed frontier table stays untouched.
run cargo run --release --offline -q -p tn-bench --bin bench_cloud -- --smoke
head -1 BENCH_cloud.json | grep -q '"schema":"tn-bench/v1"'
echo "==> BENCH_cloud.json: tn-bench/v1 ok"
# Lab determinism: parallel batches must be byte-identical to serial and
# reproduce the standalone golden digests (registry scenarios).
run cargo run --release --offline -q -p tn-audit -- divergence --filter lab
# Lab smoke: expand the smoke grid, run it on 2 workers, and check the
# report leads with the tn-lab/v1 schema marker.
echo "==> tn-lab expand + run --threads 2 (tn-lab/v1 schema check)"
lab_out=target/ci-lab-smoke.json
cargo run --release --offline -q -p tn-lab -- expand --preset smoke > /dev/null
cargo run --release --offline -q -p tn-lab -- run --preset smoke --threads 2 \
    --out "$lab_out" > /dev/null
head -1 "$lab_out" | grep -q '"schema":"tn-lab/v1"'
rm -f "$lab_out"
# BENCH lab smoke: serial-vs-parallel wall clock with byte-identity
# asserted inside the harness; smoke never writes BENCH_lab.json, so the
# committed 3-rep numbers stay untouched.
run cargo run --release --offline -q -p tn-bench --bin bench_lab -- --smoke
head -1 BENCH_lab.json | grep -q '"schema":"tn-bench/v1"'
echo "==> BENCH_lab.json: tn-bench/v1 ok"

# perfbench correctness smoke: each workload briefly on the held-out
# seed. run.py exits non-zero when a run misses a value pinned in
# perfbench/pins.json (digest, event count, set-up digest), panics or
# times out. Then the benchmark's own script tests.
for workload in d1-leafspine d3-l1-fanout metro-swarm; do
    run python3 perfbench/run.py --workload "$workload" --seed 2 --seconds 1 --trace 0
done
run python3 perfbench/test_run.py

echo "==> ci: all green"
