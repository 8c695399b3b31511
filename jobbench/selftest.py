#!/usr/bin/env python3
"""Self-test of the recipe-job benchmark.

Run from the repository root (takes under a minute after the build):

    python3 jobbench/selftest.py

Runs every workload on a tiny corpus with tracing off and on, and checks
that each metric BENCHMARK.json names is present, finite and in its unit,
that the traced run's result record holds the per-unit ops metrics, and
that no job failed. Then flips one byte of a steady export before it is
hashed and checks that the job counts as failed and the run exits 1. Last,
runs the benchmark from a directory holding only BENCHMARK.json and
jobbench/, where it must fail without printing a result.
"""

import json
import math
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCALE = "0.02"


def bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join(cwd, "jobbench", "run.py"),
         "--seed", "1", "--seconds", "0.5", "--scale", SCALE] + list(args),
        cwd=cwd, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            pass
    return proc, result


def check_metrics(result, expected, where):
    errors = []
    metrics = result["metrics"]
    for spec in expected:
        m = metrics.get(spec["name"])
        if m is None:
            errors.append("%s: missing %s" % (where, spec["name"]))
            continue
        value = m.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            errors.append("%s: %s not finite: %r" % (where, spec["name"],
                                                     value))
        if m.get("unit") != spec["unit"]:
            errors.append("%s: %s unit %r, want %r" % (
                where, spec["name"], m.get("unit"), spec["unit"]))
    extra = set(metrics) - {spec["name"] for spec in expected}
    if extra:
        errors.append("%s: metrics not in BENCHMARK.json: %s" % (
            where, ", ".join(sorted(extra))))
    return errors


def check_units(workload, where):
    """The per-unit ops metrics in the result record: named from the
    workload's RunReport, so present only for units that ran."""
    path = os.path.join(ROOT, ".jobbench", "results",
                        "%s-s1-t1.json" % workload)
    with open(path) as f:
        units = json.load(f)["units"]
    errors = [] if units else ["%s: no per-unit ops metrics" % where]
    for name, m in units.items():
        unit = "s" if name.endswith(".s") else "ratio"
        if not (name.startswith("ops.") and name.endswith((".s", ".keep"))) \
                or m["unit"] != unit or not math.isfinite(m["value"]):
            errors.append("%s: bad unit metric %s %r" % (where, name, m))
    return errors


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    errors = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, expected in ((0, spec["end_to_end"]),
                                (1, spec["per_layer"])):
            where = "%s --trace %d" % (workload, trace)
            proc, result = bench("--workload", workload, "--trace",
                                 str(trace))
            if proc.returncode != 0 or result is None:
                errors.append("%s: exit %d\n%s" % (where, proc.returncode,
                                                   proc.stderr[-2000:]))
                continue
            if not result["correct"] or result["failed"] != 0 or \
                    result["attempted"] < 1:
                errors.append("%s: correct=%s attempted=%s failed=%s" % (
                    where, result["correct"], result["attempted"],
                    result["failed"]))
            errors += check_metrics(result, expected, where)
            if trace == 1:
                errors += check_units(workload, where)
            print("ok   %s (%d jobs)" % (where, result["attempted"]))

    proc, result = bench("--workload", "cache_warm", "--trace", "0",
                         "--flip-byte")
    if proc.returncode != 1 or result is None or result["correct"] or \
            result["failed"] != 1:
        errors.append("flipped export not counted as one failed job: "
                      "exit %d, result %r" % (proc.returncode, result))
    else:
        print("ok   flipped export counted: failed %d of %d" % (
            result["failed"], result["attempted"]))

    bare = os.path.join(ROOT, ".jobbench", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(os.path.join(ROOT, "jobbench"),
                    os.path.join(bare, "jobbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc, result = bench("--workload", "web_refine", "--trace", "0",
                         cwd=bare)
    shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or result is not None:
        errors.append("bare directory: exit %d, result %r" % (
            proc.returncode, result))
    else:
        print("ok   bare directory refused (exit %d)" % proc.returncode)

    for e in errors:
        print("FAIL " + e)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
