#!/usr/bin/env python3
"""Run one perfbench workload, or all of them, and print the result.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py                # every workload, both modes

Run from the root of the repository. The first run builds the espresso
library and the perfbench binary (CMake, Release) into .bench_build/;
later runs rebuild only what changed. Every ESPRESSO_* variable is
removed from the binary's environment, so the engine runs in its
default modes; the names removed are listed on stderr.

With --trace 0 the result holds the end-to-end metrics of
BENCHMARK.json, with --trace 1 its per-layer metrics (the traced run
also writes its spans to .bench_out/trace-<workload>.csv). The full
result, with the host facts (nproc, compiler, build type, commit),
is kept in .bench_out/result-<workload>-trace<0|1>.json. Every
metric is printed as a table row with its unit and sample count n,
then the last line of stdout is the result as one JSON object. The
exit status is non-zero when a correctness or durability check
failed, when the binary crashed, or when it could not be built.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["wire_ycsb", "tpcc_xshard", "heap_gc"]
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                        "perfbench")


def configured_for(bdir):
    """The source directory a CMake build tree was configured for."""
    try:
        with open(os.path.join(bdir, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith("CMAKE_HOME_DIRECTORY:INTERNAL="):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return None


def build():
    bdir = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    home = configured_for(bdir)
    if home is not None and os.path.realpath(home) != os.path.realpath(HERE):
        shutil.rmtree(bdir)  # configured for another checkout
    steps = []
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "-j", jobs])
    for cmd in steps:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                           text=True)
        if r.returncode != 0:
            sys.stderr.write(r.stdout[-4000:])
            fail("build failed: " + " ".join(cmd))
    return os.path.join(bdir, "perfbench")


def source_id():
    """The commit when run from a git checkout, else a digest of the
    sources the binary is built from."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                           text=True)
        if r.returncode == 0:
            return r.stdout.strip()
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for d, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs.sort()
            for f in sorted(files):
                p = os.path.join(d, f)
                h.update(os.path.relpath(p, ROOT).encode())
                with open(p, "rb") as fh:
                    h.update(fh.read())
    return "src-sha256:" + h.hexdigest()[:16]


def clean_env():
    env = dict(os.environ)
    cleared = sorted(k for k in env if k.startswith("ESPRESSO_"))
    for k in cleared:
        del env[k]
    if cleared:
        print("perfbench: cleared " + ", ".join(cleared), file=sys.stderr)
    return env


def run_one(binary, spec, workload, seed, seconds, trace, commit):
    """Run the binary once; return (ok, result dict)."""
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--out-dir", out_dir, "--commit", commit]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, env=clean_env(),
                           text=True, timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        return False, {"error": "perfbench timed out after %d s" % RUN_TIMEOUT_S}
    line = next((l for l in reversed(r.stdout.splitlines())
                 if l.startswith("PERFBENCH_RESULT ")), None)
    for l in r.stdout.splitlines():
        if not l.startswith("PERFBENCH_RESULT "):
            print(l)
    if r.returncode not in (0, 1) or line is None:
        return False, {"error": "perfbench exited with status %d" % r.returncode}
    res = json.loads(line[len("PERFBENCH_RESULT "):])
    want = spec["per_layer" if trace else "end_to_end"]
    errors = []
    for m in want:
        got = res["metrics"].get(m["name"])
        if got is None:
            errors.append("missing metric " + m["name"])
        elif got["unit"] != m["unit"]:
            errors.append("unit of %s is %s, not %s"
                          % (m["name"], got["unit"], m["unit"]))
        elif got["value"] is None:
            errors.append("metric %s is not a number" % m["name"])
    extra = set(res["metrics"]) - {m["name"] for m in want}
    errors += ["unlisted metric " + n for n in sorted(extra)]
    res["checks"] += errors
    ok = res["correct"] and not errors and r.returncode == 0
    res["correct"] = ok
    with open(os.path.join(out_dir, "result-%s-trace%d.json"
                           % (workload, trace)), "w") as f:
        json.dump(res, f, indent=1)
    return ok, res


def print_table(workload, trace, res):
    host = res.get("host", {})
    print("== %s trace=%d seed=%s seconds=%s | nproc=%s client_threads=%s "
          "compiler=%s build=%s commit=%s"
          % (workload, trace, res.get("seed"), res.get("seconds"),
             host.get("nproc"), host.get("client_threads"),
             host.get("compiler"), host.get("build_type"), host.get("commit")))
    for name, m in sorted(res.get("metrics", {}).items()):
        v = "%16.6g" % m["value"] if m["value"] is not None else "%16s" % "NaN"
        print("  %-32s %s %-11s n=%d" % (name, v, m["unit"], m["n"]))
    for c in res.get("checks", []):
        print("  CHECK FAILED: " + c)
    print("  correct=%s attempted=%s failed=%s"
          % (res.get("correct"), res.get("attempted"), res.get("failed")))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", default="all", choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--trace", type=int, default=None, choices=[0, 1])
    a = ap.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no espresso sources under %s/src" % ROOT)
    if not os.path.exists(spec_path):
        fail("no BENCHMARK.json at " + ROOT)
    with open(spec_path) as f:
        spec = json.load(f)
    seconds = a.seconds if a.seconds is not None else spec["run_seconds"]
    if not 1 <= seconds <= 60:
        fail("--seconds must be 1..60")
    binary = build()
    commit = source_id()

    if a.workload != "all":
        trace = a.trace or 0
        ok, res = run_one(binary, spec, a.workload, a.seed, seconds, trace,
                          commit)
        if "error" in res:
            print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                              "metrics": {}}))
            print("perfbench: " + res["error"], file=sys.stderr)
            sys.exit(1)
        print_table(a.workload, trace, res)
        print(json.dumps({
            "correct": ok,
            "attempted": res["attempted"],
            "failed": res["failed"],
            "metrics": {n: {"value": m["value"], "unit": m["unit"]}
                        for n, m in res["metrics"].items()},
        }))
        sys.exit(0 if ok else 1)

    # Every workload in both modes: the one-command overview.
    all_ok, attempted, failed, metrics = True, 0, 0, {}
    for w in WORKLOADS:
        for trace in ([a.trace] if a.trace is not None else [0, 1]):
            ok, res = run_one(binary, spec, w, a.seed, seconds, trace, commit)
            if "error" in res:
                print("== %s trace=%d: %s" % (w, trace, res["error"]))
                all_ok = False
                continue
            print_table(w, trace, res)
            all_ok = all_ok and ok
            attempted += res["attempted"]
            failed += res["failed"]
            for n, m in res["metrics"].items():
                metrics["%s.%s" % (w, n)] = {"value": m["value"],
                                             "unit": m["unit"]}
    print(json.dumps({"correct": all_ok, "attempted": max(1, attempted),
                      "failed": failed, "metrics": metrics}))
    sys.exit(0 if all_ok else 1)


if __name__ == "__main__":
    main()
