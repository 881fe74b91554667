#!/usr/bin/env bash
# CI gauntlet, one stage after another:
#   release-tests    Release build + full test suite
#   asan             ASan+UBSan build + hostile-input (sanitize) suite and
#                    the BDD package tests
#   tsan             ThreadSanitizer build + the same labeled suite
#   perfbench        one short perfbench run per workload, which must match
#                    perfbench/reference.json (digests, patch shape,
#                    bdd_proved) and stay within +25 % of the wall times in
#                    scripts/perf_baseline.json on the machine it was
#                    recorded on; then eco02/eco05/eco10 at --jobs 1/2/4
#                    must give byte-identical netlists and certified runs
#   kill-resume      a fault plan with a misspelled kind fails closed; then
#                    crash-inject the CLI mid-run (simulated kill -9) and
#                    prove the journal resumes to the uninterrupted report
#   isolation-matrix crash/OOM/hang/garble one worker subprocess per run
#                    and prove the supervisor contains it
#   verify-oracle    certify the example suite under paranoid audits, inject
#                    a miscompiled patch and prove the oracle catches it
#                    (repro bundle, quarantine, exit 4), with verdict records
#                    bit-identical across jobs/isolate/resume
#   daemon-soak      SIGKILL a resident --serve daemon mid-queue; the
#                    restart recovers its WAL and drains every job to
#                    verdicts bit-identical to undisturbed one-shot runs
#   batch-fanout     a --batch sweep over two loopback agents survives
#                    SIGKILL of the sweep and of an agent, with
#                    bit-identical artifacts
#   chaos-soak       seeded storage-fault schedules over every execution
#                    mode (ASan build) all heal to the reference verdicts
# Every injected fault comes from a fault plan file (util/fault_plan.hpp)
# written by plan() and armed with SYSECO_FAULT_PLAN=FILE, or sent to the
# daemon with --submit-fault FILE.
# Run from anywhere; builds land in build-ci/, build-ci-asan/ and
# build-ci-tsan/.
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
JOBS="$(nproc 2>/dev/null || echo 4)"

# Stage harness: every stage prints exactly one machine-greppable
#   STAGE <name> OK|FAIL
# line. The script is linear (no stage functions) because `set -e` is
# silently disabled inside a function called from a condition - the
# classic bash footgun that turns a failing stage into a green run.
CURRENT_STAGE="setup"
begin_stage() { CURRENT_STAGE="$1"; }
end_stage() { echo "STAGE $CURRENT_STAGE OK"; CURRENT_STAGE="setup"; }
on_exit() {
  status=$?
  [ -n "${SMOKE:-}" ] && rm -rf "$SMOKE"
  [ -n "${PERF:-}" ] && rm -rf "$PERF"
  [ "$status" -ne 0 ] && echo "STAGE $CURRENT_STAGE FAIL"
  exit "$status"
}
trap on_exit EXIT

begin_stage release-tests
echo "=== Release build + tier-1 tests ==="
cmake -B "$ROOT/build-ci" -S "$ROOT" -DCMAKE_BUILD_TYPE=Release
cmake --build "$ROOT/build-ci" -j "$JOBS"
ctest --test-dir "$ROOT/build-ci" --output-on-failure -j "$JOBS"

end_stage
begin_stage asan
echo "=== Sanitizer build (ASan+UBSan) + robustness suite ==="
cmake -B "$ROOT/build-ci-asan" -S "$ROOT" -DSYSECO_SANITIZE=address
cmake --build "$ROOT/build-ci-asan" -j "$JOBS"
ctest --test-dir "$ROOT/build-ci-asan" --output-on-failure -j "$JOBS" -L sanitize
# The BDD package's tests carry no label, but its in-place level swaps and
# arena bookkeeping are exactly what ASan+UBSan should see.
"$ROOT/build-ci-asan/tests/syseco_tests" --gtest_filter='Bdd*'

end_stage
begin_stage tsan
echo "=== ThreadSanitizer build + parallel suite ==="
cmake -B "$ROOT/build-ci-tsan" -S "$ROOT" -DSYSECO_SANITIZE=thread
cmake --build "$ROOT/build-ci-tsan" -j "$JOBS"
ctest --test-dir "$ROOT/build-ci-tsan" --output-on-failure -j "$JOBS" -L sanitize

end_stage
begin_stage perfbench
echo "=== perfbench: reference checks, wall bound, jobs 1/2/4 identity ==="
# perfbench/run.py builds the engine and perfbench_iter (Release) into
# .bench_build/perfbench and checks every case against
# perfbench/reference.json: rectified-netlist digests, patch shape, verdict
# counts and bdd_proved. One short run per workload (at least three
# iterations each) must pass those checks. Its median wall_s is gated at
# 1.25 x baseline + 0.05 s against scripts/perf_baseline.json when this
# machine and build match the baseline's fingerprint; otherwise the log
# says the wall gate was skipped and why, and correctness is still gated.
PERF="$(mktemp -d)"  # removed by the on_exit trap
BASELINE="$ROOT/scripts/perf_baseline.json"
PERF_SECONDS="$(python3 -c 'import json, sys; print(json.load(open(sys.argv[1]))["seconds"])' "$BASELINE")"
for W in certify search parallel cli-isolate; do
  (cd "$ROOT" && python3 perfbench/run.py --workload "$W" \
      --seconds "$PERF_SECONDS" --trace 0) > "$PERF/$W.out" \
      || { cat "$PERF/$W.out"; exit 1; }
done
# Patch-shape identity across --jobs on three suite cases, in-process with
# the harness binary run.py just built: the rectified netlists must be
# byte-identical and every run certified, its patch the pinned shape. No
# time is taken here, so the three runs share the machine.
ITER="$ROOT/.bench_build/perfbench/perfbench_iter"
ITER_PIDS=()
for J in 1 2 4; do
  "$ITER" --cases eco02,eco05,eco10 --work "$PERF/jobs$J" --jobs "$J" \
      --seed 1 --trace 0 &
  ITER_PIDS+=("$!")
done
for P in "${ITER_PIDS[@]}"; do wait "$P"; done
for C in eco02 eco05 eco10; do
  for J in 2 4; do
    cmp "$PERF/jobs1/$C.out.netlist" "$PERF/jobs$J/$C.out.netlist" \
        || { echo "$C: --jobs $J netlist differs from --jobs 1"; exit 1; }
  done
done
python3 - "$BASELINE" "$PERF" <<'PYEOF'
import json, sys
base = json.load(open(sys.argv[1]))
perf = sys.argv[2]
workloads = ("certify", "search", "parallel", "cli-isolate")
runs = {}
for w in workloads:
    lines = [l for l in open(f"{perf}/{w}.out").read().splitlines() if l]
    runs[w] = (json.loads(lines[0])["fingerprint"], json.loads(lines[-1]))
fp = runs[workloads[0]][0]
differ = [k for k in ("nproc", "cpu_model", "build_type", "compiler")
          if fp.get(k) != base["fingerprint"][k]]
if differ:
    # Never skip silently: say what differs and what is still gated.
    print("PERF GATE SKIPPED (wall): fingerprint differs from "
          "scripts/perf_baseline.json in "
          + ", ".join(f"{k} (baseline {base['fingerprint'][k]!r}, "
                      f"here {fp.get(k)!r})" for k in differ)
          + "; correctness and jobs identity are still gated")
for w, (_, last) in runs.items():
    assert last["correct"] is True, f"perfbench {w}: {last}"
    wall = last["metrics"]["wall_s"]["value"]
    if not differ:
        limit = base["wall_s"][w] * 1.25 + 0.05  # floor absorbs tiny runs
        assert wall <= limit, (
            f"perfbench {w}: wall regression {base['wall_s'][w]:.3f}s -> "
            f"{wall:.3f}s (limit {limit:.3f}s)")
    print(f"perfbench {w}: correct ({last['attempted']} case runs), "
          f"wall_s {wall:.3f}")
for case, pinned in base["patch"].items():
    for jobs in (1, 2, 4):
        rep = json.load(open(f"{perf}/jobs{jobs}/{case}.report.json"))
        outs = rep["oracle"]["outputs"]
        where = f"{case} --jobs {jobs}"
        assert rep["success"] is True, f"{where}: run did not succeed"
        assert outs and all(o["certified"] for o in outs), (
            f"{where}: not every output certified")
        assert rep["oracle"]["disagreements"] == 0, (
            f"{where}: oracle disagreements")
        got = dict(rep["patch"], failing_outputs=rep["failing_outputs"])
        assert got == pinned, f"{where}: patch {got} != pinned {pinned}"
print("perfbench jobs identity OK: " + ", ".join(base["patch"]))
PYEOF

end_stage
begin_stage kill-resume
echo "=== Kill-and-resume smoke test ==="
CLI="$ROOT/build-ci/src/tools/syseco_cli"
SMOKE="$(mktemp -d)"  # removed by the on_exit trap
IMPL="$ROOT/data/alu_impl.blif"
SPEC="$ROOT/data/alu_spec.blif"
# plan FILE ENTRY...: write a fault plan, one "from <skip> <site> <kind>"
# (persistent) or "at <hit> <site> <kind>" (one-shot) entry per line.
plan() { local file="$1"; shift; printf '%s\n' "$@" > "$file"; }

# A misspelled fault kind must fail closed (exit 3, naming the plan line
# and kind) before the run starts; accepted silently, a typo in the crash
# loop below would run fault-free and pass without ever crashing.
plan "$SMOKE/typo.plan" "from 0 journal.checkpoint crsh"
set +e
SYSECO_FAULT_PLAN="$SMOKE/typo.plan" \
    "$CLI" --impl "$IMPL" --spec "$SPEC" --journal "$SMOKE/typo" \
    > "$SMOKE/typo.log" 2>&1
rc=$?
set -e
[ "$rc" -eq 3 ] || { echo "misspelled fault kind: expected exit 3, got $rc"; exit 1; }
grep -q "line 1: unknown fault kind 'crsh'" "$SMOKE/typo.log" \
    || { echo "misspelled fault kind: line and kind not named"; cat "$SMOKE/typo.log"; exit 1; }
[ ! -e "$SMOKE/typo" ] || { echo "misspelled fault kind: the run started"; exit 1; }

"$CLI" --impl "$IMPL" --spec "$SPEC" --report "$SMOKE/ref.json" \
    > "$SMOKE/ref.log"

# Crash (std::_Exit(137), the honest kill -9) right after the first
# checkpoint commits, then resume until the run completes; each resume may
# crash again after one more output, so loop with a hard bound.
plan "$SMOKE/crash0.plan" "from 0 journal.checkpoint crash"
plan "$SMOKE/crash1.plan" "from 1 journal.checkpoint crash"
set +e
SYSECO_FAULT_PLAN="$SMOKE/crash0.plan" \
    "$CLI" --impl "$IMPL" --spec "$SPEC" --journal "$SMOKE/j" \
    > "$SMOKE/crash.log" 2>&1
rc=$?
set -e
[ "$rc" -eq 137 ] || { echo "expected crash exit 137, got $rc"; exit 1; }

for round in 1 2 3 4 5 6 7 8; do
  set +e
  SYSECO_FAULT_PLAN="$SMOKE/crash1.plan" \
      "$CLI" --impl "$IMPL" --spec "$SPEC" --resume "$SMOKE/j" \
      --report "$SMOKE/resumed.json" > "$SMOKE/resume$round.log" 2>&1
  rc=$?
  set -e
  [ "$rc" -eq 137 ] && continue
  [ "$rc" -eq 0 ] || { echo "resume failed with $rc"; cat "$SMOKE/resume$round.log"; exit 1; }
  break
done
[ "$rc" -eq 0 ] || { echo "resume chain never finished"; exit 1; }

# The resumed report must equal the uninterrupted one, timing aside.
normalize() { grep -v '"phase_cpu_seconds"' "$1" | sed -E 's/"(cpu_)?seconds": [0-9.e+-]*/"\1seconds": T/g'; }
if ! diff <(normalize "$SMOKE/ref.json") <(normalize "$SMOKE/resumed.json"); then
  echo "resumed report diverged from the uninterrupted run"
  exit 1
fi

end_stage
begin_stage isolation-matrix
echo "=== Isolation fault-injection matrix ==="
# Reference: a clean isolated run must be bit-identical to the in-process
# run (the report smoke above) in everything but wall-clock timing.
"$CLI" --impl "$IMPL" --spec "$SPEC" --jobs 4 --isolate \
    --report "$SMOKE/iso_ref.json" --out "$SMOKE/iso_ref.blif" \
    > "$SMOKE/iso_ref.log"
"$CLI" --impl "$IMPL" --spec "$SPEC" --jobs 4 \
    --report "$SMOKE/inproc_ref.json" --out "$SMOKE/inproc_ref.blif" \
    > "$SMOKE/inproc_ref.log"
cmp "$SMOKE/iso_ref.blif" "$SMOKE/inproc_ref.blif" \
    || { echo "--isolate netlist diverged from the in-process run"; exit 1; }
if ! diff <(normalize "$SMOKE/inproc_ref.json") <(normalize "$SMOKE/iso_ref.json"); then
  echo "--isolate report diverged from the in-process run"
  exit 1
fi

# Inject each fault kind into the worker of the last planned output: the
# run must complete degraded (exit 4), quarantine exactly that output to the
# cone-clone fallback with the matching exit cause and attempt count, and
# leave every other output bit-identical to the uninjected run.
VICTIM="$(python3 -c "
import json
print(json.load(open('$SMOKE/iso_ref.json'))['outputs'][-1]['output'])")"
for KIND in crash oom hang garbage-ipc; do
  case "$KIND" in
    hang) WANT_CAUSE="wall-timeout"; WANT_LIMIT="deadline-exceeded" ;;
    oom)  WANT_CAUSE="oom";          WANT_LIMIT="budget-exhausted" ;;
    *)    WANT_CAUSE="$KIND";        WANT_LIMIT="internal" ;;
  esac
  plan "$SMOKE/iso_$KIND.plan" "from 0 isolate.worker.o${VICTIM} ${KIND}"
  set +e
  SYSECO_FAULT_PLAN="$SMOKE/iso_$KIND.plan" \
      "$CLI" --impl "$IMPL" --spec "$SPEC" --jobs 4 --isolate \
      --isolate-wall-ms 2000 --isolate-backoff-ms 1 --isolate-max-attempts 2 \
      --report "$SMOKE/iso_$KIND.json" > "$SMOKE/iso_$KIND.log" 2>&1
  rc=$?
  set -e
  [ "$rc" -eq 4 ] || {
    echo "fault $KIND: expected degraded exit 4, got $rc"
    cat "$SMOKE/iso_$KIND.log"; exit 1; }
  python3 - "$SMOKE/iso_ref.json" "$SMOKE/iso_$KIND.json" "$VICTIM" \
      "$KIND" "$WANT_CAUSE" "$WANT_LIMIT" <<'PYEOF'
import json, sys
ref, got = json.load(open(sys.argv[1])), json.load(open(sys.argv[2]))
victim, kind, want_cause, want_limit = int(sys.argv[3]), *sys.argv[4:7]
inj = [o for o in got["outputs"] if o["output"] == victim][0]
assert inj["status"] == "fallback", (kind, inj)
assert inj["exit_cause"] == want_cause, (kind, inj)
assert inj["limit"] == want_limit, (kind, inj)
assert inj["attempts"] == 2, (kind, inj)
assert got["degraded"] is True and got["success"] is True
def norm(o):
    return {k: (0 if k == "seconds" else v) for k, v in o.items()}
refmap = {o["output"]: norm(o) for o in ref["outputs"]}
for o in got["outputs"]:
    if o["output"] == victim:
        continue
    assert norm(o) == refmap[o["output"]], (kind, o)
print(f"fault {kind}: contained (fallback, {want_cause}, 2 attempts)")
PYEOF
done

end_stage
begin_stage verify-oracle
echo "=== Certification oracle (verify-oracle) ==="
# Example suite under paranoid auditing: every output pair must certify
# through the three independent routes with zero audit findings, and the
# report must carry build provenance.
"$CLI" --impl "$IMPL" --spec "$SPEC" --audit=paranoid --jobs 4 \
    --report "$SMOKE/oracle_clean.json" > "$SMOKE/oracle_clean.log"
python3 - "$SMOKE/oracle_clean.json" <<'PYEOF'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["oracle"]["enabled"] is True
assert doc["oracle"]["disagreements"] == 0
certs = doc["oracle"]["outputs"]
assert certs, "no certificates recorded"
for c in certs:
    assert c["certified"] is True, c
    assert c["sat"] == "equivalent", c
    assert c["bdd"] in ("equivalent", "skipped(budget)"), c
    assert c["sim"] in ("passed-bounded", "equivalent"), c
audit = doc["audit"]
assert audit["level"] == "paranoid", audit
assert audit["boundaries"] > 0 and audit["findings"] == [], audit
assert doc["build"]["git_hash"], doc.get("build")
print(f"verify-oracle: {len(certs)} output pair(s) certified "
      f"across {audit['boundaries']} paranoid audit boundaries")
PYEOF

# Miscompiled-patch injection: the oracle must catch the wrong patch,
# quarantine it to the cone-clone fallback (exit 4) and package a repro
# bundle with the minimized counterexample.
plan "$SMOKE/wrong.plan" "from 0 oracle.wrong-patch wrong-patch"
set +e
SYSECO_FAULT_PLAN="$SMOKE/wrong.plan" \
    "$CLI" --impl "$IMPL" --spec "$SPEC" --audit=paranoid \
    --repro-dir "$SMOKE/repro" --journal "$SMOKE/j_wrong" \
    --report "$SMOKE/oracle_wrong.json" > "$SMOKE/oracle_wrong.log" 2>&1
rc=$?
set -e
[ "$rc" -eq 4 ] || {
  echo "wrong-patch: expected quarantined exit 4, got $rc"
  cat "$SMOKE/oracle_wrong.log"; exit 1; }
BUNDLE="$(ls -d "$SMOKE"/repro/disagreement-o* 2>/dev/null | head -1)"
[ -n "$BUNDLE" ] || { echo "wrong-patch: no repro bundle produced"; exit 1; }
for f in impl_patched.raw spec.raw patch.txt cex.txt meta.json MANIFEST; do
  [ -s "$BUNDLE/$f" ] || { echo "repro bundle missing $f"; exit 1; }
done
python3 - "$SMOKE/oracle_wrong.json" <<'PYEOF'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["oracle"]["disagreements"] == 1, doc["oracle"]
assert doc["success"] is True and doc["degraded"] is True
fallbacks = [o for o in doc["outputs"] if o["status"] == "fallback"]
assert len(fallbacks) == 1 and fallbacks[0]["limit"] == "internal", fallbacks
for c in doc["oracle"]["outputs"]:
    assert c["certified"] is True, c  # post-quarantine re-certification
print("verify-oracle: wrong patch caught, quarantined, bundle verified")
PYEOF

# The journaled verdict records must be bit-identical however the run was
# executed: in-process --jobs, --isolate subprocess workers, and a
# crash-then---resume chain of the same injected run.
set +e
SYSECO_FAULT_PLAN="$SMOKE/wrong.plan" \
    "$CLI" --impl "$IMPL" --spec "$SPEC" --jobs 4 --isolate \
    --journal "$SMOKE/j_wrong_iso" > "$SMOKE/oracle_iso.log" 2>&1
[ $? -eq 4 ] || { echo "isolate wrong-patch: expected exit 4"; exit 1; }
SYSECO_FAULT_PLAN="$SMOKE/crash0.plan" \
    "$CLI" --impl "$IMPL" --spec "$SPEC" \
    --journal "$SMOKE/j_wrong_res" > /dev/null 2>&1
[ $? -eq 137 ] || { echo "crash seed run: expected exit 137"; exit 1; }
SYSECO_FAULT_PLAN="$SMOKE/wrong.plan" \
    "$CLI" --impl "$IMPL" --spec "$SPEC" \
    --resume "$SMOKE/j_wrong_res" > "$SMOKE/oracle_res.log" 2>&1
[ $? -eq 4 ] || { echo "resume wrong-patch: expected exit 4"; exit 1; }
set -e
extract_verdicts() {
  python3 - "$1" <<'PYEOF'
import re, sys
data = open(sys.argv[1] + "/journal.jsonl", "rb").read()
recs = re.findall(rb'\{"type":"verdicts".*?"disagreements":\d+\}', data)
assert recs, "no verdicts record in " + sys.argv[1]
sys.stdout.write(recs[-1].decode())
PYEOF
}
extract_verdicts "$SMOKE/j_wrong" > "$SMOKE/v_jobs.txt"
extract_verdicts "$SMOKE/j_wrong_iso" > "$SMOKE/v_iso.txt"
extract_verdicts "$SMOKE/j_wrong_res" > "$SMOKE/v_res.txt"
cmp "$SMOKE/v_jobs.txt" "$SMOKE/v_iso.txt" \
    || { echo "--isolate verdict record diverged"; exit 1; }
cmp "$SMOKE/v_jobs.txt" "$SMOKE/v_res.txt" \
    || { echo "--resume verdict record diverged"; exit 1; }
echo "verify-oracle: verdict records identical across jobs/isolate/resume"

end_stage
begin_stage daemon-soak
echo "=== Daemon soak: SIGKILL mid-queue, recover, drain ==="
# A resident --serve daemon takes three jobs whose workers self-crash at
# every checkpoint commit (one output of progress per attempt), is killed
# with SIGKILL while the queue is mid-heal, and is restarted on the same
# state directory. The recovered daemon must drain every job to done and
# every job's verdict record and rectified netlist must be bit-identical
# to an undisturbed one-shot run of the same case and seed.
SERVE="$SMOKE/serve"
mkdir -p "$SERVE"
plan "$SERVE/crash.plan" "from 0 journal.checkpoint crash"
for SEED in 1 2 3; do
  "$CLI" --impl "$IMPL" --spec "$SPEC" --seed "$SEED" \
      --journal "$SERVE/ref$SEED" --out "$SERVE/ref$SEED.blif" \
      > "$SERVE/ref$SEED.log"
done

"$CLI" --serve 0 --serve-state "$SERVE/state" --port-file "$SERVE/port" \
    --serve-pool 1 --serve-attempts 40 > "$SERVE/d1.log" 2>&1 &
DAEMON=$!
for _ in $(seq 1 100); do [ -s "$SERVE/port" ] && break; sleep 0.1; done
PORT="$(cat "$SERVE/port")"
for SEED in 1 2 3; do
  "$CLI" --connect "127.0.0.1:$PORT" --impl "$IMPL" --spec "$SPEC" \
      --seed "$SEED" --detach \
      --submit-fault "$SERVE/crash.plan" \
      > "$SERVE/submit$SEED.log" 2>&1 \
      || { echo "submit $SEED rejected"; cat "$SERVE/submit$SEED.log"; exit 1; }
done
sleep 1
kill -9 "$DAEMON" 2>/dev/null
wait "$DAEMON" 2>/dev/null || true
grep -aq '"event":"running"' "$SERVE/state/queue/journal.jsonl" \
    || { echo "daemon died before dispatching anything"; exit 1; }
grep -aq '"event":"done"' "$SERVE/state/queue/journal.jsonl" \
    && { echo "daemon drained before the kill; soak window too late"; exit 1; }

rm -f "$SERVE/port"
"$CLI" --serve 0 --serve-state "$SERVE/state" --port-file "$SERVE/port" \
    --serve-pool 1 --serve-attempts 40 > "$SERVE/d2.log" 2>&1 &
DAEMON=$!
for _ in $(seq 1 100); do [ -s "$SERVE/port" ] && break; sleep 0.1; done
PORT="$(cat "$SERVE/port")"
# A job killed mid-attempt logs "re-queued with resume"; one killed during
# crash-backoff was already queued-with-resume and logs "restored as
# queued-with-resume" instead. Either proves the WAL recovery ran.
grep -aqE 're-queued with resume|restored as queued-with-resume' \
    "$SERVE/d2.log" "$SERVE/state/queue/journal.jsonl" \
    || { echo "restart never recovered the mid-run job"; exit 1; }
for SEED in 1 2 3; do
  "$CLI" --connect "127.0.0.1:$PORT" --wait "j00000$SEED" \
      > "$SERVE/wait$SEED.log" 2>&1 \
      || { echo "job j00000$SEED never drained"; cat "$SERVE/wait$SEED.log"; exit 1; }
  extract_verdicts "$SERVE/state/jobs/j00000$SEED/journal" \
      > "$SERVE/v_job$SEED.txt"
  extract_verdicts "$SERVE/ref$SEED" > "$SERVE/v_ref$SEED.txt"
  cmp "$SERVE/v_job$SEED.txt" "$SERVE/v_ref$SEED.txt" \
      || { echo "job j00000$SEED verdicts diverged after recovery"; exit 1; }
  cmp "$SERVE/state/jobs/j00000$SEED/out.blif" "$SERVE/ref$SEED.blif" \
      || { echo "job j00000$SEED netlist diverged after recovery"; exit 1; }
done
kill "$DAEMON" 2>/dev/null
wait "$DAEMON" 2>/dev/null || true
echo "daemon soak: SIGKILL mid-queue recovered, 3 jobs drained bit-identical"

end_stage
begin_stage batch-fanout
echo "=== Batch fan-out (loopback): kill an agent mid-case and the driver mid-batch ==="
# A 4-case --batch sweep over two loopback agents. The driver is SIGKILLed
# mid-batch, restarted with --resume, and then one agent is SIGKILLed while
# it holds a case. The drained sweep's verdict records and patched netlists
# must be bit-identical to running every case locally with --jobs 2.
BATCH="$SMOKE/batch"
mkdir -p "$BATCH"
for SEED in 1 2 3 4; do
  "$CLI" --impl "$IMPL" --spec "$SPEC" --seed "$SEED" --jobs 2 \
      --journal "$BATCH/bref$SEED" --out "$BATCH/bref$SEED.blif" \
      > "$BATCH/bref$SEED.log"
  extract_verdicts "$BATCH/bref$SEED" > "$BATCH/bref$SEED.verdicts"
  printf '\n' >> "$BATCH/bref$SEED.verdicts"
done
{
  echo '{"cases": ['
  for SEED in 1 2 3 4; do
    COMMA=","; [ "$SEED" -eq 4 ] && COMMA=""
    echo "  {\"name\": \"alu-s$SEED\", \"impl\": \"$IMPL\"," \
         "\"spec\": \"$SPEC\", \"seed\": $SEED}$COMMA"
  done
  echo ']}'
} > "$BATCH/manifest.json"

"$CLI" --serve-worker 0 --port-file "$BATCH/p1" > "$BATCH/ba1.log" 2>&1 &
BAGENT1=$!
"$CLI" --serve-worker 0 --port-file "$BATCH/p2" > "$BATCH/ba2.log" 2>&1 &
BAGENT2=$!
for _ in $(seq 1 100); do
  [ -s "$BATCH/p1" ] && [ -s "$BATCH/p2" ] && break
  sleep 0.1
done
BP1="$(cat "$BATCH/p1")"
BP2="$(cat "$BATCH/p2")"

# Phase 1: SIGKILL the driver as soon as the WAL proves a case is in
# flight. The fsync-per-record job queue means the kill can lose nothing.
"$CLI" --batch "$BATCH/manifest.json" --batch-state "$BATCH/state" \
    --workers "127.0.0.1:$BP1,127.0.0.1:$BP2" --jobs 2 --verbose \
    > "$BATCH/drive1.log" 2>&1 &
BDRIVER=$!
for _ in $(seq 1 200); do
  grep -aq '"event":"running"' "$BATCH/state/queue/journal.jsonl" \
      2>/dev/null && break
  sleep 0.05
done
kill -9 "$BDRIVER" 2>/dev/null
wait "$BDRIVER" 2>/dev/null || true
grep -aq '"event":"running"' "$BATCH/state/queue/journal.jsonl" \
    || { echo "driver died before dispatching anything"; exit 1; }
DONE_AT_KILL="$(grep -ac '"event":"done"' "$BATCH/state/queue/journal.jsonl" || true)"
[ "$DONE_AT_KILL" -lt 4 ] \
    || { echo "sweep drained before the kill; soak window too late"; exit 1; }

# Phase 2: restart on the same state directory with --resume; SIGKILL agent
# 1 the moment it holds a case again, so the scheduler must reclaim the
# assignment and redispatch it (to the survivor, or a local pool slot while
# the survivor is busy).
( for _ in $(seq 1 400); do
    if grep -aq -- "-> 127.0.0.1:$BP1 " "$BATCH/drive2.log" 2>/dev/null; then
      kill -9 "$BAGENT1" 2>/dev/null
      break
    fi
    sleep 0.02
  done ) &
BKILLER=$!
set +e
"$CLI" --batch "$BATCH/manifest.json" --resume "$BATCH/state" \
    --workers "127.0.0.1:$BP1,127.0.0.1:$BP2" --jobs 2 --verbose \
    > "$BATCH/drive2.log" 2>&1
rc=$?
set -e
wait "$BKILLER" 2>/dev/null || true
kill -9 "$BAGENT1" "$BAGENT2" 2>/dev/null || true
[ "$rc" -eq 0 ] || {
  echo "resumed batch failed with $rc"; cat "$BATCH/drive2.log"; exit 1; }

# The interrupted attempt must be visible in the WAL as recovery, and the
# drained sweep must report every case done.
grep -aqE 'recovery:|"event":"recovered"' \
    "$BATCH/state/queue/journal.jsonl" "$BATCH/drive2.log" \
    || { echo "resume never recovered the interrupted dispatch"; exit 1; }
python3 - "$BATCH/state/batch_report.json" <<'PYEOF'
import json, sys
doc = json.load(open(sys.argv[1]))
assert len(doc["cases"]) == 4, doc
for case in doc["cases"]:
    assert case["state"] == "done" and case["exit_code"] == 0, case
assert doc["interrupted"] is False, doc
print("batch report: 4/4 cases done")
PYEOF

# 3-way identity: every case's netlist and verdict record must match the
# serial local --jobs 2 reference byte for byte.
for SEED in 1 2 3 4; do
  CASE="$BATCH/state/jobs/alu-s$SEED"
  cmp "$CASE/out.blif" "$BATCH/bref$SEED.blif" \
      || { echo "batch case alu-s$SEED netlist diverged"; exit 1; }
  cmp "$CASE/verdicts.txt" "$BATCH/bref$SEED.verdicts" \
      || { echo "batch case alu-s$SEED verdicts diverged"; exit 1; }
done
echo "batch fan-out: driver and agent SIGKILLs recovered, 4 cases bit-identical"

end_stage
begin_stage chaos-soak
echo "=== Chaos soak: seeded storage-fault schedules (ASan) ==="
# Seeded fault schedules swept across every execution mode under the ASan
# build: each faulted run must end in a structured exit (no signal death,
# hang, or silent corruption), a fault-free heal must converge on verdicts
# and netlists bit-identical to the reference, and the state trees must
# hold no leaked staging files - chaos_soak exits nonzero on any of those.
# Quick set always; SYSECO_SOAK=1 triples the sweep for nightly runs.
# Repro bundles for violated schedules live outside $SMOKE so they survive
# the exit trap.
SCHEDULES=20
[ "${SYSECO_SOAK:-0}" = "1" ] && SCHEDULES=60
CHAOS="$(mktemp -d -t syseco-chaos-XXXXXX)"
"$ROOT/build-ci-asan/bench/chaos_soak" \
    --cli "$ROOT/build-ci-asan/src/tools/syseco_cli" \
    --impl "$IMPL" --spec "$SPEC" \
    --out-dir "$CHAOS" --schedules "$SCHEDULES" --seed-base 1 \
    || { echo "chaos soak failed; repro bundles kept in $CHAOS"; exit 1; }
rm -rf "$CHAOS"
end_stage

echo "=== CI passed ==="
