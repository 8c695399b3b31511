#!/usr/bin/env python3
"""Recipe-job benchmark: dj_process-style jobs, end to end and per layer.

Run from the repository root:

    python3 jobbench/run.py --workload web_refine --seed 1 --seconds 10 --trace 0

Builds jobbench/ (the repository's src/ libraries plus jb_gen and jb_job)
into .bench_build/ on first use, generates the seeded input in a separate
process, computes the reference digest, then measures. One job at a time
from a single process (closed loop, one client), np=4.

--trace 0  end-to-end metrics, tracing off: set-up and the first job are
           timed in several fresh processes (medians), steady jobs in one
           more process for --seconds.
--trace 1  per-layer metrics, from one traced process whose Chrome trace
           (.jobbench/traces/) this script reduces to layer numbers and
           self times.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics. Exit status is 1 when any job failed or mismatched the reference,
2 when the benchmark could not be built or run. See jobbench/README.md.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
STATE = os.path.join(ROOT, ".jobbench")
NP = 4  # jb_job's kNp
MIB = float(1 << 20)
# Fresh processes per trace-0 run: TIMED_PROCESSES each set up, run the
# first job, then steady jobs for 1/TIMED_PROCESSES of --seconds; before
# each, SETUP_PROCESSES only set up (cheap). Spreading the steady jobs over
# the whole run, rather than one window at its end, evens out the host's
# slow and fast phases. Every metric is a median over the processes (or the
# pooled steady jobs) that measured it.
TIMED_PROCESSES = 5
SETUP_PROCESSES = 4
# Generated inputs kept between invocations, newest first.
KEEP_INPUTS = 6

LIGHT = "jobbench/recipes/light_rowlocal.yaml"
WORKLOADS = {
    # OP compute is ~95% of the job: ops/text changes show here, data-plane
    # changes must read flat.
    "web_refine": {"corpus": "web", "export": "jsonl",
                   "recipe": "configs/recipes/pretrain_general_en.yaml"},
    # Dataset-level barrier OPs (exact, minhash, paragraph dedup) are ~90%
    # of Executor::Run.
    "dedup_near": {"corpus": "dedup", "export": "jsonl",
                   "recipe": "configs/recipes/minimal_dedup.yaml"},
    # Writes: cache stores and checkpoint saves after every unit, emptied
    # before each job; export is .djds.djlz.
    "cache_cold": {"corpus": "light", "export": "djlz", "recipe": LIGHT,
                   "cache": True, "checkpoint": True, "cold": True},
    # Reads what cache_cold writes: every unit hits the cache filled once
    # before timing.
    "cache_warm": {"corpus": "light", "export": "jsonl", "recipe": LIGHT,
                   "cache": True, "fill": True},
}


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def run(cmd, env=None, check=True):
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    if check and proc.returncode != 0:
        raise BenchError("%s exited %d" % (os.path.basename(cmd[0]),
                                           proc.returncode))
    return proc


def last_json(proc):
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    if not lines:
        raise BenchError("no output from %s" % proc.args[0])
    return json.loads(lines[-1])


def build():
    if not os.path.isdir(os.path.join(ROOT, "src")):
        raise BenchError("no src/ next to jobbench/: not a full checkout")
    # Keep the compiler's temporary files inside the checkout too.
    env = dict(os.environ, TMPDIR=os.path.join(BUILD, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", os.path.join(ROOT, "jobbench"), "-B", BUILD,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                              stderr=sys.stderr)
        if proc.returncode != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            raise BenchError("cmake configure failed")
    proc = subprocess.run(["cmake", "--build", BUILD, "-j", str(NP)],
                          cwd=ROOT, env=env, stdout=sys.stderr,
                          stderr=sys.stderr)
    if proc.returncode != 0:
        raise BenchError("build failed")


def generate(corpus, seed, scale):
    """Generates (or reuses) the input for (corpus, seed, scale)."""
    inputs = os.path.join(STATE, "inputs")
    os.makedirs(inputs, exist_ok=True)
    stem = os.path.join(inputs, "%s-s%d-x%g" % (corpus, seed, scale))
    path, meta_path = stem + ".jsonl", stem + ".meta.json"
    if os.path.exists(path) and os.path.exists(meta_path):
        os.utime(path)
        with open(meta_path) as f:
            return path, json.load(f)
    proc = run([os.path.join(BUILD, "jb_gen"), "--corpus", corpus, "--seed",
                str(seed), "--scale", str(scale), "--out", path])
    meta = last_json(proc)
    with open(meta_path, "w") as f:
        json.dump(meta, f)
    kept = sorted((p for p in os.listdir(inputs) if p.endswith(".jsonl")),
                  key=lambda p: -os.path.getmtime(os.path.join(inputs, p)))
    for old in kept[KEEP_INPUTS:]:
        for suffix in (".jsonl", ".meta.json"):
            try:
                os.remove(os.path.join(inputs, old[:-6] + suffix))
            except FileNotFoundError:
                pass
    return path, meta


def median(values):
    return statistics.median(values) if values else float("nan")


# ------------------------------------------------------------- trace 0 ----

def end_to_end(job_cmd, env, seconds, flip):
    prep = last_json(run(job_cmd("prepare"), env))
    digest = prep["digest"]
    setups, firsts, jobs, cpus, peaks = [], [], [], [], []
    attempted = failed = 0
    for i in range(TIMED_PROCESSES):
        for mode in ["setup"] * SETUP_PROCESSES + ["timed"]:
            cmd = job_cmd(mode) + ["--digest", digest]
            if mode == "timed":
                cmd += ["--seconds", str(seconds / TIMED_PROCESSES)]
                if flip and i == 0:
                    cmd.append("--flip-byte")
            proc = run(cmd, env, check=False)
            if proc.returncode not in (0, 1):
                raise BenchError("jb_job exited %d" % proc.returncode)
            out = last_json(proc)
            setups.append(out["setup_s"])
        firsts.append(out["first_job_s"])
        jobs += out["job_s"]
        cpus += out["cpu_s"]
        peaks.append(out["peak_rss_bytes"] / MIB)
        attempted += out["attempted"]
        failed += out["failed"]
    metrics = {
        "setup_s": (median(setups), "s"),
        "first_job_s": (median(firsts), "s"),
        "job_s": (median(jobs), "s"),
        "cpu_s": (median(cpus), "CPU-s"),
        "peak_rss_mib": (median(peaks), "MiB"),
    }
    notes = ["steady jobs: %d over %d fresh processes (job_s, cpu_s "
             "medians); set-up in %d processes, first job and peak RSS in "
             "%d (medians)" % (len(jobs), TIMED_PROCESSES, len(setups),
                               len(firsts)),
             "reference digest %s (serial reference Run %.3f s, %d rows)" %
             (digest, prep["run_s"], prep["rows_out"])]
    return metrics, attempted, failed, out["host"], notes, {}


# ------------------------------------------------------------- trace 1 ----

class TraceView:
    """Indexes a Chrome trace written by jb_job --mode traced."""

    def __init__(self, path):
        with open(path) as f:
            events = json.load(f)["traceEvents"]
        self.spans = []
        for e in events:
            a = e["args"]
            self.spans.append({"name": e["name"], "ts": e["ts"] / 1e6,
                               "dur": e["dur"] / 1e6, "id": a["id"],
                               "parent": a["parent"], "job": a["job"],
                               "args": a})
        self.kind = {s["job"]: s["name"] for s in self.spans
                     if s["parent"] == 0}
        self.children = {}
        for s in self.spans:
            self.children.setdefault(s["parent"], []).append(s)

    def find(self, name, kind, **match):
        out = []
        for s in self.spans:
            if s["name"] != name or self.kind.get(s["job"]) != kind:
                continue
            if all(s["args"].get(k) == v for k, v in match.items()):
                out.append(s)
        return out

    def durs(self, name, kind, **match):
        return [s["dur"] for s in self.find(name, kind, **match)]

    def self_time(self, span):
        """Duration minus the union of its children's intervals."""
        covered, end = 0.0, span["ts"]
        for c in sorted(self.children.get(span["id"], []),
                        key=lambda c: c["ts"]):
            lo, hi = max(c["ts"], end), c["ts"] + c["dur"]
            if hi > lo:
                covered += hi - lo
                end = hi
        return span["dur"] - covered


def unit_metric_name(unit):
    name = unit["name"]
    if name.startswith("fused("):
        name = "fused-" + name[len("fused("):].split(",")[0].rstrip(")")
    return "ops." + name


def per_layer(view, export):
    """Returns (metrics, per-unit metrics, untraced job wall, traced jobs).

    The per-unit metrics, ops.<unit>.s and ops.<unit>.keep, are named from
    the workload's own RunReport, so only units that ran appear.
    """
    jobs = sorted({s["job"] for s in view.find("job", "traced")})
    if not jobs:
        raise BenchError("trace holds no traced job")
    m = {}

    def put(name, value, unit):
        m[name] = (value, unit)

    ser = "SerializeDataset" if export == "djlz" else "ToJsonl"
    read = view.find("ReadFile", "traced")
    parse = view.find("ParseJsonl", "traced")
    run_spans = view.find("Executor::Run", "traced")
    write = view.find("WriteFile", "traced")
    put("data.read_s", median([s["dur"] for s in read]), "s")
    put("data.parse_s", median([s["dur"] for s in parse]), "s")
    serial_parse = median(view.durs("ParseJsonl", "probes", threads=1))
    put("data.parse_speedup", serial_parse / m["data.parse_s"][0], "x")
    put("data.serialize_s", median(view.durs(ser, "traced")), "s")
    serial_ser = median(view.durs(ser, "probes", threads=1, of="result"))
    put("data.serialize_speedup", serial_ser / m["data.serialize_s"][0], "x")
    put("data.deserialize_s", median(view.durs("DeserializeDataset",
                                               "probes")), "s")
    put("data.write_s", median([s["dur"] for s in write]), "s")
    put("data.input_mib", read[0]["args"]["bytes"] / MIB, "MiB")
    put("data.output_mib", write[0]["args"]["bytes"] / MIB, "MiB")
    put("data.dataset_mib", view.find("Dataset::ApproxMemoryBytes", "traced")
        [0]["args"]["bytes"] / MIB, "MiB")

    comp = view.find("CompressFrame", "probes", threads=NP)
    put("compress.compress_s", median([s["dur"] for s in comp]), "s")
    put("compress.decompress_s", median(view.durs("DecompressFrame",
                                                  "probes")), "s")
    put("compress.ratio",
        comp[0]["args"]["in_bytes"] / comp[0]["args"]["out_bytes"], "x")
    serial_comp = median(view.durs("CompressFrame", "probes", threads=1))
    put("compress.speedup", serial_comp / m["compress.compress_s"][0], "x")

    run_s = median([s["dur"] for s in run_spans])
    run_cpu = median([s["args"]["cpu_s"] for s in run_spans])
    unit_sums = [sum(u["seconds"] for u in s["args"]["units"])
                 for s in run_spans]
    put("core.run_s", run_s, "s")
    put("core.run_cpu_s", run_cpu, "CPU-s")
    put("core.run_util", run_cpu / (run_s * NP), "ratio")
    put("core.ops_s", median(unit_sums), "s")
    put("core.overhead_s", median([s["dur"] - u for s, u in
                                   zip(run_spans, unit_sums)]), "s")
    ref_run = median(view.durs("Executor::Run", "reference"))
    put("core.speedup_np4", ref_run / run_s, "x")
    put("core.plan_swaps", run_spans[0]["args"]["plan_swaps"], "count")
    put("core.cache_hits", run_spans[0]["args"]["cache_hits"], "count")
    for name, span in (("core.cache_store_s", "CacheManager::Store"),
                       ("core.cache_load_s", "CacheManager::Load"),
                       ("core.ckpt_save_s", "CheckpointManager::Save"),
                       ("core.ckpt_load_s", "CheckpointManager::LoadLatest")):
        put(name, median(view.durs(span, "probes")), "s")
    total = view.find("CacheManager::TotalBytes", "probes")
    put("core.cache_mib", total[0]["args"]["bytes"] / MIB, "MiB")

    kinds = {"mapper": [], "filter": [], "deduplicator": []}
    units = {}
    for s in run_spans:
        sums = dict.fromkeys(kinds, 0.0)
        for u in s["args"]["units"]:
            kind = "filter" if u["kind"] == "fused_filter" else u["kind"]
            sums[kind] += u["seconds"]
            keep = u["rows_out"] / u["rows_in"] if u["rows_in"] else 1.0
            units.setdefault(unit_metric_name(u), []).append(
                (u["seconds"], keep))
        for k in kinds:
            kinds[k].append(sums[k])
    put("ops.mapper_s", median(kinds["mapper"]), "s")
    put("ops.filter_s", median(kinds["filter"]), "s")
    put("ops.dedup_s", median(kinds["deduplicator"]), "s")
    unit_metrics = {}
    for name, vals in units.items():
        unit_metrics[name + ".s"] = (median([v[0] for v in vals]), "s")
        unit_metrics[name + ".keep"] = (median([v[1] for v in vals]), "ratio")

    def job_wall(kind):
        return median([s["args"]["wall_s"] for s in view.spans
                       if s["parent"] == 0 and s["name"] == kind])
    untraced = job_wall("untraced")
    put("obs.sinks_overhead_frac", job_wall("sinks") / untraced - 1, "ratio")
    put("obs.trace_overhead_frac", job_wall("traced") / untraced - 1,
        "ratio")
    return m, unit_metrics, untraced, len(jobs)


def self_time_table(view):
    rows = {}
    for s in view.spans:
        if view.kind.get(s["job"]) in ("setup", "traced", "probes") and \
                s["parent"] != 0:
            key = (view.kind[s["job"]], s["name"])
            rows.setdefault(key, []).append(
                (s["dur"], view.self_time(s)))
    lines = ["%-8s %-30s %5s %10s %10s" % ("group", "span", "n",
                                           "median_s", "self_s")]
    for (kind, name), vals in sorted(rows.items()):
        lines.append("%-8s %-30s %5d %10.5f %10.5f" % (
            kind, name, len(vals), median([v[0] for v in vals]),
            median([v[1] for v in vals])))
    return lines


def dominance(workload, m, job_s):
    v = {k: val for k, (val, _) in m.items()}
    if workload == "web_refine":
        share = (v["ops.mapper_s"] + v["ops.filter_s"]) / v["core.run_s"]
        return "ops.mapper_s + ops.filter_s = %.0f%% of core.run_s " \
               "(target >= 70%%)" % (100 * share)
    if workload == "dedup_near":
        share = v["ops.dedup_s"] / v["core.run_s"]
        return "ops.dedup_s = %.0f%% of core.run_s (target >= 70%%)" % (
            100 * share)
    if workload == "cache_cold":
        share = v["core.overhead_s"] / job_s
        return "core.overhead_s = %.0f%% of job_s (target >= 50%%)" % (
            100 * share)
    share = (v["data.read_s"] + v["data.parse_s"] + v["data.serialize_s"] +
             v["data.write_s"] + v["core.cache_load_s"]) / job_s
    return ("data read+parse+serialize+write + core.cache_load_s = %.0f%% "
            "of job_s (target >= 50%%)" % (100 * share))


def traced(job_cmd, env, seconds, workload, seed):
    traces = os.path.join(STATE, "traces")
    os.makedirs(traces, exist_ok=True)
    trace_path = os.path.join(traces, "%s-s%d.json" % (workload, seed))
    proc = run(job_cmd("traced") + ["--seconds", str(seconds),
                                    "--trace-out", trace_path], env,
               check=False)
    if proc.returncode not in (0, 1):
        raise BenchError("jb_job exited %d" % proc.returncode)
    out = last_json(proc)
    view = TraceView(trace_path)
    metrics, units, untraced, njobs = per_layer(
        view, WORKLOADS[workload]["export"])
    notes = ["traced jobs: %d (medians); trace written to %s" % (
                 njobs, os.path.relpath(trace_path, ROOT)),
             "dominance: " + dominance(workload, metrics, untraced),
             "self times:"] + ["  " + l for l in self_time_table(view)]
    notes += ["plan units (from the RunReport):"] + [
        "  %-40s %12.6g %s" % (n, v, u) for n, (v, u) in units.items()]
    return metrics, out["attempted"], out["failed"], out["host"], notes, units


# ---------------------------------------------------------------- main ----

def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", type=float, default=1.0,
                    help="corpus size factor (the self-test uses 0.02)")
    ap.add_argument("--force-scalar", action="store_true",
                    help="sensitivity check: run with DJ_FORCE_SCALAR=1")
    ap.add_argument("--flip-byte", action="store_true",
                    help="self-test: corrupt one steady export before "
                         "hashing; the job must count as failed")
    args = ap.parse_args()

    build()
    spec = WORKLOADS[args.workload]
    input_path, corpus = generate(spec["corpus"], args.seed, args.scale)

    work = os.path.join(STATE, "work", args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    env = dict(os.environ)
    extra = []
    if args.force_scalar:
        env["DJ_FORCE_SCALAR"] = "1"
        extra.append("--allow-simd-env")
    if spec.get("cache"):
        extra += ["--cache-dir", os.path.join(work, "cache")]
    if spec.get("checkpoint"):
        extra += ["--checkpoint-dir", os.path.join(work, "ckpt")]
    if spec.get("cold"):
        extra.append("--cold")

    def job_cmd(mode):
        cmd = [os.path.join(BUILD, "jb_job"), "--mode", mode, "--recipe",
               os.path.join(ROOT, spec["recipe"]), "--input", input_path,
               "--work", work, "--export", spec["export"]]
        if spec.get("fill") and mode in ("prepare", "traced"):
            cmd.append("--fill-cache")
        return cmd + extra

    if args.trace == 0:
        result = end_to_end(job_cmd, env, args.seconds, args.flip_byte)
    else:
        result = traced(job_cmd, env, args.seconds, args.workload, args.seed)
    metrics, attempted, failed, host, notes, units = result
    # Mismatching exports are kept in <work>/mismatch/ until the next run of
    # the workload.
    if os.path.isdir(os.path.join(work, "mismatch")):
        log("mismatching exports kept in " + os.path.relpath(
            os.path.join(work, "mismatch"), ROOT))
    else:
        shutil.rmtree(work, ignore_errors=True)

    host = dict(host, seed=args.seed, workload=args.workload,
                corpus_rows=corpus["rows"],
                corpus_mib=round(corpus["bytes"] / MIB, 3),
                force_scalar=args.force_scalar)
    print("host: " + " ".join("%s=%s" % kv for kv in sorted(host.items())))
    for note in notes:
        print(note)
    fail_frac = failed / attempted if attempted else 1.0
    print("%-28s %14s %s" % ("metric", "value", "unit"))
    for name, (value, unit) in metrics.items():
        print("%-28s %14.6g %s" % (name, value, unit))
    print("%-28s %14.6g %s" % ("fail_frac", fail_frac, "ratio"))

    bad = [n for n, (v, _) in metrics.items()
           if not isinstance(v, (int, float)) or not math.isfinite(v)]
    correct = failed == 0 and attempted > 0 and not bad
    if bad:
        log("non-finite metrics: " + ", ".join(bad))
    results = os.path.join(STATE, "results")
    os.makedirs(results, exist_ok=True)
    record = {"host": host, "fail_frac": fail_frac,
              "metrics": {n: {"value": v, "unit": u}
                          for n, (v, u) in metrics.items()},
              "units": {n: {"value": v, "unit": u}
                        for n, (v, u) in units.items()}}
    with open(os.path.join(results, "%s-s%d-t%d.json" % (
            args.workload, args.seed, args.trace)), "w") as f:
        json.dump(record, f, indent=1)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": record["metrics"]}))
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as e:
        log("jobbench: " + str(e))
        sys.exit(2)
