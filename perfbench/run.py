#!/usr/bin/env python3
"""Repository benchmark runner.

Builds the benchmark (perfbench/, a CMake package that compiles the annsim
libraries from the sources next to it), runs one workload, checks the
result against BENCHMARK.json, and prints the result object as the last
line of standard output. Everything else goes to standard error.

    python3 perfbench/run.py --workload batch|serve|mixed --seed N \\
        --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run it from the root of a checkout. Build files go to .bench_build/ and
results, traces and temporary files to .bench_out/, both under the root.
"""

import argparse
import fcntl
import json
import os
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 175
BUILD_TIMEOUT_S = 880
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def log(msg):
    print(f"[run.py] {msg}", file=sys.stderr, flush=True)


def fail(msg):
    log(f"error: {msg}")
    sys.exit(1)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    path = Path(base)
    if not path.is_absolute():
        path = ROOT / path
    return path / "perfbench"


def build():
    """Configure (once) and build the benchmark; returns the build dir."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"annsim sources not found in {ROOT}; run from a full checkout")
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    with open(out / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (out / "CMakeCache.txt").is_file():
            steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(out), "-j", jobs])
        for cmd in steps:
            try:
                proc = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                                      stderr=sys.stderr,
                                      timeout=BUILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                fail(f"build timed out: {' '.join(cmd)}")
            if proc.returncode != 0:
                fail(f"build failed: {' '.join(cmd)}")
    return out


def load_spec():
    path = ROOT / "BENCHMARK.json"
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as e:
        fail(f"cannot read {path}: {e}")


def spec_errors(spec):
    """Contract checks on BENCHMARK.json; returns a list of problems."""
    errs = []
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end",
            "per_layer"}
    if set(spec) != keys:
        errs.append(f"top-level keys {sorted(spec)} != {sorted(keys)}")
        return errs
    names = set()

    def name_ok(n, where):
        if not isinstance(n, str) or not NAME_RE.match(n):
            errs.append(f"{where}: bad name {n!r}")
        elif n in names:
            errs.append(f"{where}: name {n!r} used twice")
        names.add(n)

    if not 2 <= len(spec["workloads"]) <= 8:
        errs.append("need 2 to 8 workloads")
    for w in spec["workloads"]:
        if set(w) != {"name", "why"}:
            errs.append(f"workload keys {sorted(w)}")
        name_ok(w.get("name"), "workload")
        why = w.get("why", "")
        if not why or len(why) > 200 or "\n" in why:
            errs.append(f"workload {w.get('name')}: bad why")
    for group, keys_want in (("end_to_end", {"name", "unit", "better", "bound"}),
                             ("per_layer", {"name", "unit", "better"})):
        for m in spec[group]:
            if set(m) != keys_want:
                errs.append(f"{group} {m.get('name')}: keys {sorted(m)}")
            name_ok(m.get("name"), group)
            if not UNIT_RE.match(str(m.get("unit", ""))):
                errs.append(f"{group} {m.get('name')}: bad unit")
            if m.get("better") not in ("lower", "higher"):
                errs.append(f"{group} {m.get('name')}: bad better")
            if group == "end_to_end" and not 0 < m.get("bound", 0) <= 0.25:
                errs.append(f"{m.get('name')}: bound must be in (0, 0.25]")
    if not 1 <= len(spec["end_to_end"]) <= 16:
        errs.append("need 1 to 16 end-to-end metrics")
    if not 1 <= len(spec["per_layer"]) <= 128:
        errs.append("need 1 to 128 per-layer metrics")
    setup = [m for m in spec["end_to_end"] if m.get("name") == "setup_s"]
    if not setup or setup[0].get("unit") != "s" or setup[0].get("better") != "lower":
        errs.append("setup_s (unit s, lower is better) is required")
    elif setup[0]["bound"] < max(m["bound"] for m in spec["end_to_end"]):
        errs.append("setup_s must carry the largest bound")
    rs = spec["run_seconds"]
    if not isinstance(rs, int) or not 1 <= rs <= 60:
        errs.append("run_seconds must be a whole number in [1, 60]")
    return errs


def check_result(line, spec, trace):
    """Validate the benchmark's result line; returns the parsed object."""
    try:
        res = json.loads(line)
    except ValueError:
        fail(f"last line is not JSON: {line[:200]!r}")
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"result keys {sorted(res)}")
    if not isinstance(res["correct"], bool):
        fail("correct must be a boolean")
    for k in ("attempted", "failed"):
        if not isinstance(res[k], int) or res[k] < 0:
            fail(f"{k} must be a whole number")
    if res["attempted"] < 1:
        fail("attempted must be at least 1")
    want = {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}
    got = res["metrics"]
    if set(got) != set(want):
        fail(f"metrics differ from BENCHMARK.json: missing "
             f"{sorted(set(want) - set(got))}, extra {sorted(set(got) - set(want))}")
    for name, m in got.items():
        if m.get("unit") != want[name] or not isinstance(m.get("value"), (int, float)):
            fail(f"metric {name}: {m}")
    return res


def run(args):
    spec = load_spec()
    errs = spec_errors(spec)
    if errs:
        fail("BENCHMARK.json: " + "; ".join(errs))
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workload not in workloads:
        fail(f"unknown workload {args.workload!r}; expected one of {workloads}")
    out = build()
    cmd = [str(out / "perfbench"), "--workload", args.workload, "--seed",
           str(args.seed), "--seconds", str(args.seconds), "--trace",
           str(args.trace), "--out", str(ROOT / ".bench_out")]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark did not finish within {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        fail(f"benchmark exited with {proc.returncode}")
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    if not lines:
        fail("benchmark printed no result")
    res = check_result(lines[-1], spec, args.trace)
    print(json.dumps(res), flush=True)


def selftest():
    spec = load_spec()
    errs = spec_errors(spec)
    out = build()
    listed = json.loads(subprocess.run([str(out / "perfbench"), "--list-metrics"],
                                       capture_output=True, text=True,
                                       check=True).stdout)
    for group in ("end_to_end", "per_layer"):
        have = [[m["name"], m["unit"]] for m in spec[group]]
        if have != listed[group]:
            errs.append(f"{group} in BENCHMARK.json differs from the benchmark's list")
    bad = [n for n in ("ok", "a.b-c_d", "9lives") if not NAME_RE.match(n)]
    bad += [n for n in ("", "_x", "a b", "x" * 65) if NAME_RE.match(n)]
    if bad:
        errs.append(f"name rule misjudges {bad}")
    for e in errs:
        log(f"FAIL: {e}")
    rc = subprocess.run([str(out / "perfbench_selftest"),
                         str(ROOT / ".bench_out" / "selftest")], cwd=ROOT).returncode
    if errs or rc != 0:
        sys.exit(1)
    log("selftest passed")


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if args.selftest:
        selftest()
    else:
        if not args.workload:
            ap.error("--workload is required")
        if args.seconds is None:
            args.seconds = load_spec()["run_seconds"]
        if args.seconds <= 0:
            ap.error("--seconds must be positive")
        run(args)


if __name__ == "__main__":
    main()
