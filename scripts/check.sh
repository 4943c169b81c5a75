#!/usr/bin/env bash
# Full local gate: default build + tier-1 tests, sanitizer build +
# tests, thread-sanitizer pass over the concurrent subsystems
# (campaign pool, checkpoint writer, logging), campaign-engine smoke
# (JSON emission + serial/parallel parity), fault-matrix smoke
# (graceful-degradation audit under sanitizers), bounds-elision
# ablation (obligation gates + jobs parity), simulator-throughput
# regression guard, crash-resume check (SIGKILL mid-campaign +
# AOS_CAMPAIGN_RESUME byte parity), distributed-fabric check (worker
# processes via AOS_FABRIC_WORKERS, worker/coordinator SIGKILL,
# resume + byte parity), chaos-engine check (deterministic AOS_CHAOS
# fault injection with byte parity + the graceful-degradation audit),
# clang-tidy lint, the multi-tenant scheduler audit, and the simulator
# benchmark (simbench build, self-tests, traced runs). Run from the
# repository root:
#
#   scripts/check.sh              # everything
#   AOS_CHECK_SKIP_SANITIZE=1 scripts/check.sh   # skip the ASan pass
#
# The tier-1 stage runs every test; the sanitizer stage runs the fast
# set (`-LE slow`) — the full suite under ASan is a CI-budget call,
# and every slow test still runs uninstrumented in stage 2.
#
# Exits non-zero on the first failure.
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="${AOS_CHECK_JOBS:-$(nproc)}"

echo "== [1/14] default build =="
cmake --preset default
cmake --build --preset default -j "${JOBS}"

echo "== [2/14] tier-1 tests =="
ctest --preset default -j "${JOBS}"

SMOKE_DIR="$(mktemp -d)"
trap 'rm -rf "${SMOKE_DIR}"' EXIT

if [ "${AOS_CHECK_SKIP_SANITIZE:-0}" != "1" ]; then
    echo "== [3/14] sanitizer build + fast tests (ASan+UBSan) =="
    cmake --preset sanitize
    cmake --build --preset sanitize -j "${JOBS}"
    ctest --preset sanitize -LE slow -j "${JOBS}"
else
    echo "== [3/14] sanitizer pass skipped (AOS_CHECK_SKIP_SANITIZE=1) =="
fi

if [ "${AOS_CHECK_SKIP_SANITIZE:-0}" != "1" ]; then
    echo "== [4/14] thread-sanitizer pass (TSan) =="
    # The campaign worker pool, checkpoint writer and logging sinks are
    # the only concurrent subsystems: build exactly what exercises
    # them, run their suites, then drive a jobs=4 campaign end to end
    # under TSan so the pool races against the JSON/checkpoint writers.
    # scheduler_test rides along: concurrent audit jobs each build a
    # whole Scheduler, so its state must be pool-shareable.
    cmake --preset tsan
    cmake --build --preset tsan -j "${JOBS}" --target \
        campaign_smoke campaign_test checkpoint_test logging_test \
        scheduler_test
    ./build-tsan/tests/campaign_test
    ./build-tsan/tests/checkpoint_test
    ./build-tsan/tests/logging_test
    ./build-tsan/tests/scheduler_test
    AOS_SIM_OPS=20000 AOS_CAMPAIGN_PROGRESS=0 AOS_CAMPAIGN_JOBS=4 \
        AOS_CAMPAIGN_JSON="${SMOKE_DIR}/tsan-smoke.json" \
        ./build-tsan/bench/campaign_smoke
    grep -q '"schema": "aos-campaign-v1"' "${SMOKE_DIR}/tsan-smoke.json"
    echo "tsan: concurrency suites OK"
else
    echo "== [4/14] TSan pass skipped (AOS_CHECK_SKIP_SANITIZE=1) =="
fi

# Strip the timing-only fields (each JSON member is on its own line)
# and require byte-equality: the determinism contract of DESIGN.md §7.
json_parity() {
    if ! diff \
        <(grep -vE '"(workers|wall_ms|total_wall_ms)"' "$1") \
        <(grep -vE '"(workers|wall_ms|total_wall_ms)"' "$2")
    then
        echo "$3: serial/parallel parity FAILED" >&2
        exit 1
    fi
}

echo "== [5/14] campaign smoke (JSON + jobs=1 vs jobs=4 parity) =="
AOS_SIM_OPS=20000 AOS_CAMPAIGN_PROGRESS=0 AOS_CAMPAIGN_JOBS=1 \
    AOS_CAMPAIGN_JSON="${SMOKE_DIR}/serial.json" ./build/bench/campaign_smoke
AOS_SIM_OPS=20000 AOS_CAMPAIGN_PROGRESS=0 AOS_CAMPAIGN_JOBS=4 \
    AOS_CAMPAIGN_JSON="${SMOKE_DIR}/parallel.json" ./build/bench/campaign_smoke
test -s "${SMOKE_DIR}/serial.json"
grep -q '"schema": "aos-campaign-v1"' "${SMOKE_DIR}/serial.json"
json_parity "${SMOKE_DIR}/serial.json" "${SMOKE_DIR}/parallel.json" \
    "campaign smoke"
echo "campaign smoke: parity OK"

echo "== [6/14] fault-matrix smoke (DESIGN.md §8 audit) =="
# Run the graceful-degradation audit under the sanitizer build when
# available — injected corruption must be UB-free, not just survivable.
FAULT_BIN=./build/bench/fault_matrix
if [ "${AOS_CHECK_SKIP_SANITIZE:-0}" != "1" ]; then
    FAULT_BIN=./build-sanitize/bench/fault_matrix
fi
AOS_SIM_OPS=40000 AOS_CAMPAIGN_PROGRESS=0 AOS_CAMPAIGN_JOBS=1 \
    AOS_CAMPAIGN_JSON="${SMOKE_DIR}/fault1.json" "${FAULT_BIN}"
AOS_SIM_OPS=40000 AOS_CAMPAIGN_PROGRESS=0 AOS_CAMPAIGN_JOBS=4 \
    AOS_CAMPAIGN_JSON="${SMOKE_DIR}/faultN.json" "${FAULT_BIN}"
grep -q '"schema": "aos-campaign-v1"' "${SMOKE_DIR}/fault1.json"
json_parity "${SMOKE_DIR}/fault1.json" "${SMOKE_DIR}/faultN.json" \
    "fault matrix"
echo "fault matrix: audit + parity OK"

echo "== [7/14] bounds-elision ablation (obligation gates + parity) =="
# The benchmark itself exits non-zero if any ObligationChecker gate
# fails or elision coverage collapses (DESIGN.md §11); the wrapper adds
# the determinism contract on top.
AOS_SIM_OPS=20000 AOS_CAMPAIGN_PROGRESS=0 AOS_CAMPAIGN_JOBS=1 \
    AOS_CAMPAIGN_JSON="${SMOKE_DIR}/belide1.json" \
    ./build/bench/bounds_elision
AOS_SIM_OPS=20000 AOS_CAMPAIGN_PROGRESS=0 AOS_CAMPAIGN_JOBS=4 \
    AOS_CAMPAIGN_JSON="${SMOKE_DIR}/belideN.json" \
    ./build/bench/bounds_elision
grep -q '"schema": "aos-campaign-v1"' "${SMOKE_DIR}/belide1.json"
json_parity "${SMOKE_DIR}/belide1.json" "${SMOKE_DIR}/belideN.json" \
    "bounds elision"
echo "bounds elision: gates + parity OK"

echo "== [8/14] simulator throughput guard =="
# Smoke-mode run of the host-throughput benchmark against the
# checked-in baseline: the per-mechanism ops/sec geomeans may not drop
# more than the guard band below scripts/throughput_baseline.json
# (generated with these exact settings). The wide band absorbs host
# noise; a hot-path regression overshoots it.
AOS_SIM_OPS=20000 AOS_CAMPAIGN_PROGRESS=0 AOS_CAMPAIGN_JOBS=1 \
    AOS_CAMPAIGN_JSON="${SMOKE_DIR}/throughput.json" \
    ./build/bench/sim_throughput
reducer_value() {
    # Line-oriented JSON: find the reducer's "name" line, print the
    # "value" member that follows within the same object.
    awk -v key="$2" '
        index($0, "\"name\": \"" key "\"") { grab = 1 }
        grab && /"value":/ { gsub(/[",]/, "", $2); print $2; exit }
    ' "$1"
}
THROUGHPUT_GUARD_OK=1
for mech in Baseline Watchdog PA AOS "PA+AOS"; do
    base="$(reducer_value scripts/throughput_baseline.json \
            "ops_per_sec_${mech}")"
    now="$(reducer_value "${SMOKE_DIR}/throughput.json" \
           "ops_per_sec_${mech}")"
    if [ -z "${base}" ] || [ -z "${now}" ]; then
        echo "throughput guard: missing ops_per_sec_${mech} reducer" >&2
        THROUGHPUT_GUARD_OK=0
        continue
    fi
    if ! awk -v now="${now}" -v base="${base}" -v mech="${mech}" '
        BEGIN {
            floor = 0.70 * base
            printf "  %-10s %12.0f ops/s (baseline %12.0f, floor %.0f)\n", \
                   mech, now, base, floor
            exit !(now >= floor)
        }'
    then
        echo "throughput guard: ${mech} regressed beyond the 30% band" >&2
        THROUGHPUT_GUARD_OK=0
    fi
done
[ "${THROUGHPUT_GUARD_OK}" = "1" ] || exit 1
echo "throughput guard: OK"

echo "== [9/14] crash-resume (SIGKILL mid-campaign, resume, parity) =="
# Kill a checkpointed campaign once its first record is durable, resume
# it with AOS_CAMPAIGN_RESUME, and require the canonical JSON to be
# byte-identical to an uninterrupted run (DESIGN.md §10).
resume_check() {
    local name="$1" bin="$2" jobs="$3" ops="$4"
    local dir="${SMOKE_DIR}/resume-${name}-j${jobs}"
    mkdir -p "${dir}"
    # Uninterrupted reference run.
    AOS_SIM_OPS="${ops}" AOS_CAMPAIGN_PROGRESS=0 \
        AOS_CAMPAIGN_JOBS="${jobs}" AOS_CAMPAIGN_JSON=off \
        AOS_CAMPAIGN_JSON_CANONICAL="${dir}/clean.json" \
        "${bin}" > /dev/null
    # Checkpointed run, SIGKILLed as soon as a shard holds a record.
    AOS_SIM_OPS="${ops}" AOS_CAMPAIGN_PROGRESS=0 \
        AOS_CAMPAIGN_JOBS="${jobs}" AOS_CAMPAIGN_JSON=off \
        AOS_CAMPAIGN_RESUME="${dir}/ckpt" \
        "${bin}" > /dev/null 2>&1 &
    local pid=$!
    for _ in $(seq 1 600); do
        if [ -n "$(find "${dir}/ckpt" -name 'shard-*.log' -size +0c \
                   2>/dev/null)" ]; then
            break
        fi
        kill -0 "${pid}" 2>/dev/null || break
        sleep 0.05
    done
    kill -9 "${pid}" 2>/dev/null || true
    wait "${pid}" 2>/dev/null || true
    # Resumed run must reproduce the reference byte-for-byte and must
    # not re-execute the jobs whose records survived the kill.
    AOS_SIM_OPS="${ops}" AOS_CAMPAIGN_PROGRESS=0 \
        AOS_CAMPAIGN_JOBS="${jobs}" AOS_CAMPAIGN_JSON=off \
        AOS_CAMPAIGN_JSON_CANONICAL="${dir}/resumed.json" \
        AOS_CAMPAIGN_RESUME="${dir}/ckpt" \
        "${bin}" > "${dir}/resumed.log"
    if ! cmp -s "${dir}/clean.json" "${dir}/resumed.json"; then
        echo "${name} (jobs=${jobs}): kill-and-resume canonical parity" \
             "FAILED" >&2
        diff "${dir}/clean.json" "${dir}/resumed.json" | head -40 >&2 ||
            true
        exit 1
    fi
    if ! grep -q 'resumed' "${dir}/resumed.log"; then
        echo "${name} (jobs=${jobs}): resumed run reported no restored" \
             "jobs" >&2
        exit 1
    fi
    echo "  ${name} (jobs=${jobs}): resume parity OK"
}
resume_check fig14 ./build/bench/fig14_exec_time 1 20000
resume_check fig14 ./build/bench/fig14_exec_time 4 20000
resume_check fault_matrix "${FAULT_BIN}" 4 20000
resume_check sim_throughput ./build/bench/sim_throughput 4 20000

echo "== [10/14] distributed fabric (worker processes, kill, resume) =="
# The campaign fabric (DESIGN.md §12): the same benches distributed
# over 4 spawned worker processes must emit canonical JSON
# byte-identical to the serial run, a SIGKILLed worker must only cost
# a reassignment, and a SIGKILLed *coordinator* must resume through
# AOS_CAMPAIGN_RESUME to the same bytes.
FABRIC_DIR="${SMOKE_DIR}/fabric"
mkdir -p "${FABRIC_DIR}"

# Serial references (canonical emission).
AOS_SIM_OPS=20000 AOS_CAMPAIGN_PROGRESS=0 AOS_CAMPAIGN_JOBS=1 \
    AOS_CAMPAIGN_JSON=off \
    AOS_CAMPAIGN_JSON_CANONICAL="${FABRIC_DIR}/smoke-serial.json" \
    ./build/bench/campaign_smoke > /dev/null
AOS_SIM_OPS=20000 AOS_CAMPAIGN_PROGRESS=0 AOS_CAMPAIGN_JOBS=1 \
    AOS_CAMPAIGN_JSON=off \
    AOS_CAMPAIGN_JSON_CANONICAL="${FABRIC_DIR}/fault-serial.json" \
    ./build/bench/fault_matrix > /dev/null

# 4-worker fabric run: byte parity with the serial reference.
AOS_SIM_OPS=20000 AOS_CAMPAIGN_PROGRESS=0 AOS_FABRIC_WORKERS=4 \
    AOS_CAMPAIGN_JSON=off \
    AOS_CAMPAIGN_JSON_CANONICAL="${FABRIC_DIR}/smoke-fabric.json" \
    ./build/bench/campaign_smoke > /dev/null
if ! cmp -s "${FABRIC_DIR}/smoke-serial.json" \
            "${FABRIC_DIR}/smoke-fabric.json"; then
    echo "fabric: campaign_smoke serial/distributed parity FAILED" >&2
    diff "${FABRIC_DIR}/smoke-serial.json" \
         "${FABRIC_DIR}/smoke-fabric.json" | head -40 >&2 || true
    exit 1
fi
echo "  campaign_smoke: 4-worker fabric parity OK"

# SIGKILL one worker process mid-campaign: the coordinator must
# reassign its job and still reproduce the reference bytes.
AOS_SIM_OPS=20000 AOS_CAMPAIGN_PROGRESS=0 AOS_FABRIC_WORKERS=4 \
    AOS_CAMPAIGN_JSON=off \
    AOS_CAMPAIGN_JSON_CANONICAL="${FABRIC_DIR}/fault-killworker.json" \
    ./build/bench/fault_matrix > /dev/null 2>&1 &
FABRIC_PID=$!
for _ in $(seq 1 100); do
    FABRIC_KID="$(pgrep -P "${FABRIC_PID}" | head -1 || true)"
    [ -n "${FABRIC_KID}" ] && break
    kill -0 "${FABRIC_PID}" 2>/dev/null || break
    sleep 0.05
done
sleep 0.3 # Let the victim pick up an assignment first.
[ -n "${FABRIC_KID:-}" ] && kill -9 "${FABRIC_KID}" 2>/dev/null || true
wait "${FABRIC_PID}"
if ! cmp -s "${FABRIC_DIR}/fault-serial.json" \
            "${FABRIC_DIR}/fault-killworker.json"; then
    echo "fabric: worker-SIGKILL parity FAILED" >&2
    exit 1
fi
echo "  fault_matrix: worker-SIGKILL reassignment parity OK"

# SIGKILL the coordinator once a shard holds a record, then resume the
# fabric run from the checkpoint: same bytes, no re-execution of the
# durable jobs.
FABRIC_CKPT="${FABRIC_DIR}/ckpt"
AOS_SIM_OPS=20000 AOS_CAMPAIGN_PROGRESS=0 AOS_FABRIC_WORKERS=4 \
    AOS_CAMPAIGN_JSON=off AOS_CAMPAIGN_RESUME="${FABRIC_CKPT}" \
    ./build/bench/fault_matrix > /dev/null 2>&1 &
FABRIC_PID=$!
for _ in $(seq 1 600); do
    if [ -n "$(find "${FABRIC_CKPT}" -name 'shard-*.log' -size +0c \
               2>/dev/null)" ]; then
        break
    fi
    kill -0 "${FABRIC_PID}" 2>/dev/null || break
    sleep 0.05
done
kill -9 "${FABRIC_PID}" 2>/dev/null || true
wait "${FABRIC_PID}" 2>/dev/null || true
AOS_SIM_OPS=20000 AOS_CAMPAIGN_PROGRESS=0 AOS_FABRIC_WORKERS=4 \
    AOS_CAMPAIGN_JSON=off AOS_CAMPAIGN_RESUME="${FABRIC_CKPT}" \
    AOS_CAMPAIGN_JSON_CANONICAL="${FABRIC_DIR}/fault-resumed.json" \
    ./build/bench/fault_matrix > "${FABRIC_DIR}/fault-resumed.log"
if ! cmp -s "${FABRIC_DIR}/fault-serial.json" \
            "${FABRIC_DIR}/fault-resumed.json"; then
    echo "fabric: coordinator-SIGKILL resume parity FAILED" >&2
    diff "${FABRIC_DIR}/fault-serial.json" \
         "${FABRIC_DIR}/fault-resumed.json" | head -40 >&2 || true
    exit 1
fi
if ! grep -q 'resumed' "${FABRIC_DIR}/fault-resumed.log"; then
    echo "fabric: resumed coordinator reported no restored jobs" >&2
    exit 1
fi
echo "  fault_matrix: coordinator-SIGKILL fabric resume parity OK"

# Re-run against the now-COMPLETE checkpoint with workers requested:
# nothing is pending, so no worker may be spawned and the coordinator
# must exit promptly instead of deadlocking on a child that is blocked
# waiting for a WELCOME (regression: wind-down listener drain).
if ! timeout 120 env AOS_SIM_OPS=20000 AOS_CAMPAIGN_PROGRESS=0 \
    AOS_FABRIC_WORKERS=4 AOS_CAMPAIGN_JSON=off \
    AOS_CAMPAIGN_RESUME="${FABRIC_CKPT}" \
    AOS_CAMPAIGN_JSON_CANONICAL="${FABRIC_DIR}/fault-complete.json" \
    ./build/bench/fault_matrix > /dev/null; then
    echo "fabric: complete-checkpoint fabric re-run hung or failed" >&2
    exit 1
fi
if ! cmp -s "${FABRIC_DIR}/fault-serial.json" \
            "${FABRIC_DIR}/fault-complete.json"; then
    echo "fabric: complete-checkpoint re-run parity FAILED" >&2
    exit 1
fi
echo "  fault_matrix: complete-checkpoint fabric re-run exits clean OK"

echo "== [11/14] chaos engine (fault injection + degradation audit) =="
# DESIGN.md §13: under a fixed AOS_CHAOS schedule every subsystem must
# either absorb the injected environment faults (retry/backoff) or
# abort cleanly — and whenever a campaign reports success its canonical
# JSON must be byte-identical to the chaos-free reference, because
# chaos is an execution-only knob like the worker count.
CHAOS_DIR="${SMOKE_DIR}/chaos"
mkdir -p "${CHAOS_DIR}"

# Checkpointed campaign under disk chaos (torn appends, failed fsyncs,
# ENOSPC): the retry-with-truncation discipline must reproduce the
# stage-10 serial reference bytes.
AOS_SIM_OPS=20000 AOS_CAMPAIGN_PROGRESS=0 AOS_CAMPAIGN_JOBS=4 \
    AOS_CHAOS="1337,12,disk" \
    AOS_CAMPAIGN_RESUME="${CHAOS_DIR}/ckpt" AOS_CAMPAIGN_JSON=off \
    AOS_CAMPAIGN_JSON_CANONICAL="${CHAOS_DIR}/smoke-chaos.json" \
    ./build/bench/campaign_smoke > /dev/null
if ! cmp -s "${FABRIC_DIR}/smoke-serial.json" \
            "${CHAOS_DIR}/smoke-chaos.json"; then
    echo "chaos: campaign_smoke disk-chaos parity FAILED" >&2
    diff "${FABRIC_DIR}/smoke-serial.json" \
         "${CHAOS_DIR}/smoke-chaos.json" | head -40 >&2 || true
    exit 1
fi
echo "  campaign_smoke: disk-chaos checkpointed parity OK"

# Distributed fabric under disk+net chaos (resets, flips, partial
# transfers): poisoned links cost evictions and respawns, never wrong
# bytes. The tightened heartbeat grace bounds eviction latency.
AOS_SIM_OPS=20000 AOS_CAMPAIGN_PROGRESS=0 AOS_FABRIC_WORKERS=4 \
    AOS_FABRIC_HEARTBEAT_GRACE=2 AOS_CHAOS="4242,8,disk+net" \
    AOS_CAMPAIGN_JSON=off \
    AOS_CAMPAIGN_JSON_CANONICAL="${CHAOS_DIR}/fault-chaos.json" \
    ./build/bench/fault_matrix > /dev/null
if ! cmp -s "${FABRIC_DIR}/fault-serial.json" \
            "${CHAOS_DIR}/fault-chaos.json"; then
    echo "chaos: fault_matrix fabric disk+net chaos parity FAILED" >&2
    diff "${FABRIC_DIR}/fault-serial.json" \
         "${CHAOS_DIR}/fault-chaos.json" | head -40 >&2 || true
    exit 1
fi
echo "  fault_matrix: 4-worker fabric disk+net chaos parity OK"

# The graceful-degradation audit itself: >= 500 scenarios, zero
# contract violations, and its own canonical JSON must not depend on
# the worker count (the audit audits itself).
AOS_CAMPAIGN_PROGRESS=0 AOS_CAMPAIGN_JOBS=1 AOS_CAMPAIGN_JSON=off \
    AOS_CAMPAIGN_JSON_CANONICAL="${CHAOS_DIR}/audit1.json" \
    ./build/bench/chaos_audit
AOS_CAMPAIGN_PROGRESS=0 AOS_CAMPAIGN_JOBS=4 AOS_CAMPAIGN_JSON=off \
    AOS_CAMPAIGN_JSON_CANONICAL="${CHAOS_DIR}/auditN.json" \
    ./build/bench/chaos_audit > /dev/null
if ! cmp -s "${CHAOS_DIR}/audit1.json" "${CHAOS_DIR}/auditN.json"; then
    echo "chaos: audit jobs=1 vs jobs=4 parity FAILED" >&2
    diff "${CHAOS_DIR}/audit1.json" "${CHAOS_DIR}/auditN.json" |
        head -40 >&2 || true
    exit 1
fi
echo "  chaos_audit: degradation audit + parity OK"

echo "== [12/14] lint =="
cmake --build --preset default --target lint

echo "== [13/14] multi-tenant scheduler (isolation audit + parity) =="
# DESIGN.md §15: the tenant_matrix harness itself exits non-zero unless
# the cross-tenant isolation audit holds over >= 500 scenarios (zero
# fingerprint mismatches, zero unprovoked violations, zero
# misattributed fault events) and the benign tenants of the
# adversarial matrix fleets logged zero violations. The wrapper adds
# the jobs=1 vs jobs=4 canonical byte-parity contract, and re-runs the
# adversarial sweep under the sanitizer build when available — fleets
# under attack must be UB-free, not just contained.
TENANT_DIR="${SMOKE_DIR}/tenant"
mkdir -p "${TENANT_DIR}"
AOS_CAMPAIGN_PROGRESS=0 AOS_CAMPAIGN_JOBS=1 AOS_CAMPAIGN_JSON=off \
    AOS_CAMPAIGN_JSON_CANONICAL="${TENANT_DIR}/tenant1.json" \
    ./build/bench/tenant_matrix > /dev/null
AOS_CAMPAIGN_PROGRESS=0 AOS_CAMPAIGN_JOBS=4 AOS_CAMPAIGN_JSON=off \
    AOS_CAMPAIGN_JSON_CANONICAL="${TENANT_DIR}/tenantN.json" \
    ./build/bench/tenant_matrix
grep -q '"schema": "aos-campaign-v1"' "${TENANT_DIR}/tenant1.json"
if ! cmp -s "${TENANT_DIR}/tenant1.json" "${TENANT_DIR}/tenantN.json"; then
    echo "tenant matrix: jobs=1 vs jobs=4 parity FAILED" >&2
    diff "${TENANT_DIR}/tenant1.json" "${TENANT_DIR}/tenantN.json" |
        head -40 >&2 || true
    exit 1
fi
echo "  tenant_matrix: isolation audit + parity OK"
if [ "${AOS_CHECK_SKIP_SANITIZE:-0}" != "1" ]; then
    AOS_CAMPAIGN_PROGRESS=0 AOS_CAMPAIGN_JOBS=4 AOS_CAMPAIGN_JSON=off \
        ./build-sanitize/bench/tenant_matrix > /dev/null
    echo "  tenant_matrix: adversarial fleets sanitizer-clean OK"
fi

echo "== [14/14] simulator benchmark (simbench build, self-tests, traced runs) =="
# simbench/ (BENCHMARK.json) compiles the library sources against the
# public API it drives, and its traced runs replay an independently
# built pass stack against each job's op mix (and the tenant path's
# mixTotal). run.py builds the runner and exits non-zero when any job
# fails or any check disagrees.
python3 -m unittest discover -s simbench/tests
for workload in core_timed tenant_churn; do
    python3 simbench/run.py --workload "${workload}" --seed 1 --trace 1
done
echo "  simbench: self-tests + traced core_timed/tenant_churn OK"

echo "All checks passed."
