#!/usr/bin/env python3
"""perfbench: end-to-end and per-layer benchmark of the syseco ECO engine.

Run from the repository root:

    python3 perfbench/run.py --workload certify --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py            # every workload, metrics as a table

Builds the engine and the harness from source into .bench_build/perfbench,
then runs the workload's iterations back to back, each in a fresh
perfbench_iter process, for --seconds seconds (at least three iterations).
Every case of every iteration is checked against perfbench/reference.json;
a mismatch counts as a failed case. The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}, with the end-to-end metrics
under --trace 0 and the per-layer metrics under --trace 1. The metrics, the
workloads and why each was chosen are described in perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import platform
import random
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
WORK = ROOT / ".bench_build" / "perfbench-work"
TRACES = ROOT / ".bench_build" / "perfbench-trace"
REFERENCE = HERE / "reference.json"
SPEC = ROOT / "BENCHMARK.json"  # metric names and units
BUILD_TYPE = "Release"
MIN_ITERATIONS = 3
ITERATION_TIMEOUT_S = 120
DEADLINE_S = 150  # never start an iteration projected to end later

# name -> (cases, jobs, run through `syseco_cli --isolate` rather than
# in-process)
WORKLOADS = {
    "certify": (["eco08"], 1, False),
    "search": (["eco02", "eco10"], 1, False),
    "parallel": (["eco02", "eco10"], 4, False),
    "cli-isolate": (["eco02", "eco10"], 4, True),
}

PHASES = ["sampling", "symbolic", "screening", "validation", "fallback",
          "sweep"]


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configures and builds the harness and the CLI; returns the two
    binaries. Raises CalledProcessError when the sources are missing.
    Configuring on every call keeps the git hash that util/build_info
    captures at configure time current; on an existing tree it is cheap."""
    subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD),
                    f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"],
                   check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(BUILD), "-j", "4", "--target",
                    "perfbench_iter", "syseco_cli"],
                   check=True, stdout=sys.stderr)
    return BUILD / "perfbench_iter", BUILD / "src" / "tools" / "syseco_cli"


def fingerprint(cli):
    """Machine and build identity; results are only comparable when the
    fields other than git_hash match."""
    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    # `syseco_cli --version` prints util/build_info's one-line provenance:
    # "syseco <hash> (<buildType>, sanitize=<mode>) <compiler>".
    version = subprocess.run([str(cli), "--version"], capture_output=True,
                             text=True).stdout.strip()
    m = re.match(r"syseco (\S+) \(([^,]+), sanitize=[^)]*\) (.*)", version)
    git_hash, build_type, compiler = m.groups() if m else ("unknown",) * 3
    return {"nproc": os.cpu_count(), "cpu_model": model,
            "machine": platform.machine(), "build_type": build_type,
            "compiler": compiler, "git_hash": git_hash}


def digest(path):
    """Content hash of a rectified .netlist, ignoring the model name."""
    lines = Path(path).read_text().splitlines(keepends=True)
    body = "".join(l for l in lines if not l.startswith(".model"))
    return hashlib.sha256(body.encode()).hexdigest()[:16]


def case_from_report(case):
    """Per-case facts read from the run's JSON report, which the CLI and
    the in-process run write alike (eco/report)."""
    rep = json.loads(Path(case["report"]).read_text())
    outs = rep["oracle"]["outputs"]
    routes = lambda o: sum(o[r] == "equivalent" for r in ("sat", "bdd", "sim"))
    phases = rep["phase_cpu_seconds"]
    return {
        "success": rep["success"] and case["exit_code"] == 0,
        "failing_outputs": rep["failing_outputs"],
        "patch": rep["patch"],
        "oracle": {
            "outputs": len(outs),
            "certified": sum(o["certified"] for o in outs),
            "disagreements": rep["oracle"]["disagreements"],
            "bdd_proved": sum(o["bdd"] == "equivalent" for o in outs),
            "routes2_proved": sum(routes(o) >= 2 for o in outs),
            "bdd_skipped": sum(o["bdd"] == "skipped(budget)" for o in outs),
            "bdd_peak_nodes": max((o["bdd_stats"]["peak_nodes"] for o in outs),
                                  default=0),
        },
        "eco": {
            "fallback_outputs": sum(o["status"] == "fallback"
                                    for o in rep["outputs"]),
            "output_s_max": max((o["seconds"] for o in rep["outputs"]),
                                default=0.0),
            "sat_conflicts": rep["budget"]["conflicts_used"],
            "bdd_nodes": rep["budget"]["bdd_nodes_used"],
            "verify_s": phases["verify"],
            **{f"{p}_s": phases[p] for p in PHASES},
        },
        "isolate_failed_attempts": sum(o["attempts"] for o in rep["outputs"]),
    }


def check_case(case, ref):
    """Returns the list of reasons `case` is wrong (empty when correct)."""
    if "error" in case:
        return [case["error"]]
    why = []
    if not case["success"]:
        why.append("run did not succeed")
    o = case["oracle"]
    if o["certified"] != o["outputs"] or o["outputs"] == 0:
        why.append(f"{o['certified']}/{o['outputs']} outputs certified")
    if o["disagreements"]:
        why.append(f"{o['disagreements']} oracle disagreements")
    if ref is None:
        return why + ["no reference recorded"]
    got = {"digest": case["digest"], "patch": case["patch"],
           "failing_outputs": case["failing_outputs"],
           "fallback_outputs": case["eco"]["fallback_outputs"]}
    for key, value in got.items():
        if value != ref[key]:
            why.append(f"{key} {value} != reference {ref[key]}")
    # The oracle may get stronger (ROADMAP item 1), never weaker.
    for key in ("bdd_proved", "routes2_proved"):
        if o[key] < ref[key]:
            why.append(f"{key} {o[key]} < reference {ref[key]}")
    return why


def run_group(cmd):
    """Runs cmd in its own process group and waits for it. On timeout the
    whole group is killed (the CLI and, through their parent-death signal,
    its --isolate workers) before the error propagates."""
    proc = subprocess.Popen(cmd, stdout=sys.stderr, start_new_session=True)
    try:
        code = proc.wait(timeout=ITERATION_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    if code != 0:
        raise subprocess.CalledProcessError(code, cmd)


def run_iteration(binary, cli, workload, seed, index, trace):
    cases, jobs, via_cli = WORKLOADS[workload]
    order = list(cases)
    random.Random(seed * 1000 + index).shuffle(order)
    work = WORK / f"{workload}-{os.getpid()}-{index}"
    shutil.rmtree(work, ignore_errors=True)
    cmd = [str(binary), "--cases", ",".join(order), "--work", str(work),
           "--jobs", str(jobs), "--seed", str(seed),
           "--trace", "1" if trace else "0"]
    if via_cli:
        cmd += ["--cli", str(cli)]
    try:
        run_group(cmd)
        facts = json.loads((work / "facts.json").read_text())
        for case in facts["cases"]:
            if Path(case["report"]).exists():
                case.update(case_from_report(case))
            else:
                case["error"] = f"exit code {case['exit_code']}, no report"
            case["digest"] = (digest(case["netlist"])
                              if Path(case["netlist"]).exists() else None)
        return facts
    finally:
        shutil.rmtree(work, ignore_errors=True)


def median(values):
    return statistics.median(values) if values else 0.0


def end_to_end(iters, attempted, failed):
    last = iters[-1]["cases"]
    ok = [c for c in last if "patch" in c]
    total = lambda f: sum(f(c) for c in ok)
    return {
        "wall_s": median([f["run"]["wall_s"] for f in iters]),
        "cpu_s": median([f["run"]["cpu_s"] for f in iters]),
        "setup_s": median([sum(f["setup"].values()) for f in iters]),
        "peak_rss_mb": median([f["run"]["peak_rss_kb"] / 1024 for f in iters]),
        "patch_gates": total(lambda c: c["patch"]["gates"]),
        "patch_inputs": total(lambda c: c["patch"]["inputs"]),
        "fallback_outputs": total(lambda c: c["eco"]["fallback_outputs"]),
        "bdd_proved": total(lambda c: c["oracle"]["bdd_proved"]),
        "routes2_proved": total(lambda c: c["oracle"]["routes2_proved"]),
        "correct_frac": 1.0 - failed / attempted,
    }


def per_layer(f):
    """Per-layer metrics of one traced iteration."""
    cases = [c for c in f["cases"] if "patch" in c]
    # The counters the report lacks are under "extra", in-process only.
    s = lambda group, key: sum(c.get(group, {}).get(key, 0) for c in cases)
    wall, cpu = f["run"]["wall_s"], f["run"]["cpu_s"]
    phases = {p: s("eco", f"{p}_s") for p in PHASES}
    validated, refuted = s("extra", "validations"), s("extra", "refuted")
    hits = s("extra", "bdd_cache_hits")
    misses = s("extra", "bdd_cache_misses")
    bdd_s = s("extra", "bdd_s")
    probes = f.get("probes", [])
    p = lambda key: sum(x[key] for x in probes)
    journal = f.get("journal", {"records": 0, "bytes": 0, "probe": {}})
    fsync = lambda key: journal["probe"].get(key, 0.0)
    return {
        "verify.s": s("eco", "verify_s"),
        "verify.bdd_s": bdd_s,
        "verify.bdd_skipped": s("oracle", "bdd_skipped"),
        "verify.bdd_skipped_s": s("extra", "bdd_skipped_s"),
        "verify.bdd_peak_nodes": max((c["oracle"].get("bdd_peak_nodes", 0)
                                      for c in cases), default=0),
        "verify.bdd_cache_hit_rate": (hits / (hits + misses)
                                      if hits + misses else 0.0),
        "verify.bdd_ite_per_s": (hits + misses) / bdd_s if bdd_s else 0.0,
        "verify.sat_s": s("extra", "sat_s"),
        "verify.sim_s": s("extra", "sim_s"),
        "verify.certify_s_max": max((c.get("extra", {}).get("certify_s_max", 0)
                                     for c in cases), default=0.0),
        "pool.parallelism": cpu / wall if wall else 0.0,
        **{f"eco.{k}_s": v for k, v in phases.items()},
        "eco.unattributed_s": (wall - sum(phases.values())
                               - s("eco", "verify_s")),
        "eco.validations": validated,
        "eco.refuted": refuted,
        "eco.screen_rejected": s("extra", "screen_rejected"),
        "eco.validation_yield": 1.0 - refuted / validated if validated else 0.0,
        "eco.refine_rounds": s("extra", "refine_rounds"),
        "eco.sat_conflicts": s("eco", "sat_conflicts"),
        "eco.bdd_nodes": s("eco", "bdd_nodes"),
        "eco.output_s_max": max((c["eco"]["output_s_max"] for c in cases),
                                default=0.0),
        "netlist.well_formed_us": p("well_formed_us"),
        "sim.load_patterns_us": p("load_patterns_us"),
        "sim.gate_evals_per_s": (p("gate_evals") / p("sim_run_s")
                                 if probes and p("sim_run_s") else 0.0),
        "cnf.pair_encoding_us": p("pair_encoding_us"),
        "sat.miter_s": p("miter_s"),
        "sat.conflicts": p("conflicts"),
        "sat.propagations_per_s": (p("propagations") / p("miter_s")
                                   if probes and p("miter_s") else 0.0),
        "isolate.failed_attempts": sum(c.get("isolate_failed_attempts", 0)
                                       for c in cases),
        "journal.bytes": journal["bytes"],
        "journal.records": journal["records"],
        "journal.append_fsync_p50_us": fsync("append_fsync_p50_us"),
        "journal.append_fsync_p99_us": fsync("append_fsync_p99_us"),
        "io.save_netlist_s": f["setup"]["save_s"],
        "io.load_netlist_s": f["setup"]["load_s"] + f["run"]["out_load_s"],
        "gen.make_case_s": f["setup"]["gen_s"],
    }


def write_trace(workload, facts):
    """Chrome trace-event JSON of one traced iteration's spans."""
    TRACES.mkdir(parents=True, exist_ok=True)
    events = [{"name": sp["name"], "ph": "X", "pid": 1, "tid": 1,
               "ts": sp["start"] * 1e6,
               "dur": (sp["end"] - sp["start"]) * 1e6,
               "args": {"parent": int(sp["parent"])}}
              for sp in facts.get("spans", [])]
    (TRACES / f"{workload}.json").write_text(
        json.dumps({"traceEvents": events}))


def run_workload(binary, cli, workload, seed, seconds, trace, reference):
    """Runs iterations for `seconds`; returns (attempted, failed, metrics)."""
    refs = reference.get("cases", {})
    start = time.monotonic()
    untraced, traced, durations = [], [], []
    attempted = failed = 0
    while True:
        n = len(durations)
        projected = time.monotonic() - start + median(durations)
        if n >= MIN_ITERATIONS and projected > seconds:
            break
        if n and projected > DEADLINE_S:
            break
        # A traced run alternates untraced and traced iterations, so the
        # tracing overhead is measured on the same run.
        tracing = trace and n % 2 == 1
        t0 = time.monotonic()
        try:
            facts = run_iteration(binary, cli, workload, seed, n, tracing)
        except (subprocess.SubprocessError, OSError, ValueError,
                KeyError) as e:
            # A crashed or hung iteration fails every case it held.
            durations.append(time.monotonic() - t0)
            attempted += len(WORKLOADS[workload][0])
            failed += len(WORKLOADS[workload][0])
            log(f"{workload} iteration {n}: {e}")
            continue
        durations.append(time.monotonic() - t0)
        (traced if tracing else untraced).append(facts)
        log(f"{workload} iteration {n}{' (traced)' if tracing else ''}: "
            f"wall {facts['run']['wall_s']:.3f} s, "
            f"cpu {facts['run']['cpu_s']:.3f} s")
        for case in facts["cases"]:
            attempted += 1
            why = check_case(case, refs.get(case["name"]))
            if tracing and not facts["probes_ok"]:
                why.append("kernel probe: netlist malformed or miter not UNSAT")
            if why:
                failed += 1
                log(f"{workload}/{case['name']} iteration {n}: "
                    + "; ".join(why))
    if not untraced or (trace and not traced):
        raise RuntimeError(f"{workload}: no iteration completed")
    if not trace:
        return attempted, failed, end_to_end(untraced, attempted, failed)
    write_trace(workload, traced[-1])
    layers = [per_layer(f) for f in traced]
    metrics = {k: median([m[k] for m in layers]) for k in layers[0]}
    metrics["trace.overhead_s"] = (
        median([f["run"]["wall_s"] for f in traced])
        - median([f["run"]["wall_s"] for f in untraced]))
    return attempted, failed, metrics


def record_reference(binary, cli):
    """Rewrites reference.json from one in-process run of every case."""
    cases = sorted({c for cs, _, _ in WORKLOADS.values() for c in cs})
    ref = {"fingerprint": fingerprint(cli), "cases": {}}
    for name in cases:
        work = WORK / f"record-{name}"
        shutil.rmtree(work, ignore_errors=True)
        subprocess.run([str(binary), "--cases", name, "--work", str(work)],
                       check=True, stdout=sys.stderr)
        facts = json.loads((work / "facts.json").read_text())["cases"][0]
        facts.update(case_from_report(facts))
        ref["cases"][name] = {
            "digest": digest(facts["netlist"]), "patch": facts["patch"],
            "failing_outputs": facts["failing_outputs"],
            "fallback_outputs": facts["eco"]["fallback_outputs"],
            "bdd_proved": facts["oracle"]["bdd_proved"],
            "routes2_proved": facts["oracle"]["routes2_proved"]}
        shutil.rmtree(work, ignore_errors=True)
    REFERENCE.write_text(json.dumps(ref, indent=2) + "\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS),
                    help="one workload; default: all, printed as a table")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-reference", action="store_true",
                    help="rewrite perfbench/reference.json and exit")
    args = ap.parse_args()

    try:
        binary, cli = build()
    except (subprocess.CalledProcessError, OSError) as e:
        log(f"build failed: {e}")
        return 2
    if args.record_reference:
        record_reference(binary, cli)
        return 0
    reference = json.loads(REFERENCE.read_text())
    spec = json.loads(SPEC.read_text())
    group = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[group]}
    fp = fingerprint(cli)
    comparable = all(fp[k] == reference["fingerprint"].get(k)
                     for k in ("nproc", "cpu_model", "build_type"))
    print(json.dumps({"fingerprint": fp,
                      "comparable_to_reference": comparable}))
    if not comparable:
        log("different machine or build type than the reference: "
            "timings are not comparable")

    workloads = [args.workload] if args.workload else list(WORKLOADS)
    results = {}
    try:
        for w in workloads:
            results[w] = run_workload(binary, cli, w, args.seed, args.seconds,
                                      bool(args.trace), reference)
    except RuntimeError as e:
        log(str(e))
        return 1
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    for w, (_, _, metrics) in results.items():
        if set(metrics) != set(units):
            log(f"{w}: metrics differ from {SPEC.name}: "
                f"{sorted(set(metrics) ^ set(units))}")
            return 1
    attempted = sum(r[0] for r in results.values())
    failed = sum(r[1] for r in results.values())
    if args.workload:
        metrics = {k: {"value": v, "unit": units[k]}
                   for k, v in results[args.workload][2].items()}
    else:
        for w, (_, _, m) in results.items():
            print(f"== {w}")
            for k, v in m.items():
                print(f"  {k:32s} {v:14.6g} {units[k]}")
        metrics = {f"{w}.{k}": {"value": v, "unit": units[k]}
                   for w, r in results.items() for k, v in r[2].items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
