"""Benchmark of the mazurtate CLI: cold jobs timed end to end, layers traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src``.
One client runs one job at a time in a closed loop for ``--seconds``.
Every job is a fresh interpreter (``job.py``), because the package's
module-level caches would turn a second in-process run into dictionary
lookups while every real CLI call pays the cold cost.

With ``--trace 0`` the run interleaves two kinds of job, in an order
shuffled by ``--seed``: the workload's CLI commands (``wall_s``,
``peak_rss_mb``) and a set-up job that imports the package and builds the
workload's eigen-symbols (``setup_s``).  With ``--trace 1`` it interleaves
traced and untraced CLI jobs and reports per-layer self times and counts.
Every job's outputs are checked against ``expected.json``.

The machine this runs on is shared, and its speed drifts by a quarter
and more for seconds to minutes at a time.  So every job is preceded by
a fixed stdlib probe, and the run's timings are scaled by
``PROBE_REFERENCE_S / mean probe time``: they are seconds on a machine
where the probe takes ``PROBE_REFERENCE_S``.  The raw times and probes
are kept in the run record.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
is the run record (machine, Python, source revision, every job).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import threading
import time
from fractions import Fraction
from pathlib import Path

import tracer
from workloads import CATALOG, WORKLOADS, load_expected, mismatches

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src" / "mazurtate"
OUT_DIR = BENCH_DIR / "out"

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
LAYER_NAMES = [*tracer.LAYER_METRICS, "kurihara.nonvanishing_ratio", "trace.overhead_ratio"]
MIN_SAMPLES = 2  # of each job kind, even when that overruns --seconds
PROBE_REFERENCE_S = 0.24
JOB_TIMEOUT_S = 150


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return "ratio" if name.endswith("_ratio") else "count"


def spawn(spec: dict) -> dict:
    """Run one job in a fresh interpreter; its result plus per-child usage."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    t0 = monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH_DIR / "job.py"), json.dumps(spec)],
        cwd=ROOT, env=env, stdout=subprocess.PIPE,
    )
    killer = threading.Timer(JOB_TIMEOUT_S, proc.kill)
    killer.start()
    try:
        out = proc.stdout.read()
    except BaseException:
        proc.kill()
        raise
    finally:
        killer.cancel()
        proc.stdout.close()
        # wait4 rather than Popen.wait: it returns this child's own rusage
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    elapsed = monotonic() - t0
    job = {
        "code": proc.returncode,
        "elapsed_s": elapsed,
        "cpu_s": usage.ru_utime + usage.ru_stime,
    }
    try:
        job["result"] = json.loads(out) if proc.returncode == 0 else None
    except ValueError:
        job["result"] = None
    if job["result"] and "t_end" in job["result"]:
        job["wall_s"] = job["result"]["t_end"] - t0
        job["peak_rss_mb"] = job["result"]["peak_rss_kib"] / 1024
    return job


def run_job(kind: str, name: str, expected: dict) -> dict:
    work = WORKLOADS[name]
    if kind == "setup":
        job = spawn({"mode": "setup", "curves": work["setup_curves"], "catalog": CATALOG})
        job["problems"] = [] if job["result"] else [f"set-up job exit code {job['code']}"]
        if job["result"]:
            job["setup_s"] = job["result"]["setup_s"]
        return job
    job = spawn({"mode": "cli", "commands": work["commands"], "trace": kind == "traced"})
    res = job["result"]
    if not res:
        job["problems"] = [f"job exit code {job['code']}"]
        return job
    job["problems"] = mismatches(name, res["results"], expected)
    if kind == "traced" and res["leftover_wrappers"]:
        job["problems"].append(f"wrappers left: {res['leftover_wrappers']}")
    return job


def schedule(kinds: list[str], rng: random.Random):
    """Rounds of one job of each kind, each round in a seeded order."""
    while True:
        order = list(kinds)
        rng.shuffle(order)
        yield from order


def nonvanishing_ratio(results: list[dict]) -> float:
    rows = [
        row for res in results
        for row in json.loads(res["stdout"])["outputs"].get("table", [])
    ]
    return sum(not row["vanishes"] for row in rows) / len(rows) if rows else 0.0


def run_workload(name: str, seed: int, seconds: float, trace: bool, expected: dict):
    """Closed loop of jobs for ``seconds``; returns (metrics, jobs, scale)."""
    rng = random.Random(seed)
    kinds = ["traced", "wall"] if trace else ["wall", "setup"]
    jobs: list[dict] = []
    last_s: dict[str, float] = {}
    deadline = monotonic() + seconds
    for kind in schedule(kinds, rng):
        enough = all(sum(j["kind"] == k for j in jobs) >= MIN_SAMPLES for k in kinds)
        if enough and monotonic() + last_s[kind] > deadline:
            break
        probe = probe_s()
        job = run_job(kind, name, expected)
        job["kind"] = kind
        job["probe_s"] = probe
        last_s[kind] = job["elapsed_s"]
        jobs.append(job)
    scale = PROBE_REFERENCE_S / statistics.fmean(j["probe_s"] for j in jobs)

    def ok(kind):
        return [j for j in jobs if j["kind"] == kind and not j["problems"]]

    def scaled_median(kind, key):
        return scale * statistics.median(j[key] for j in ok(kind))

    if not all(ok(k) for k in kinds):
        return None, jobs, scale
    wall = scaled_median("wall", "wall_s")
    if not trace:
        metrics = {
            "wall_s": wall,
            "setup_s": scaled_median("setup", "setup_s"),
            "peak_rss_mb": statistics.median(j["peak_rss_mb"] for j in ok("wall")),
        }
        return metrics, jobs, scale
    traced = ok("traced")
    per_job = [tracer.layer_metrics(j["result"]["spans"]) for j in traced]
    metrics = {
        m: statistics.median(v[m] for v in per_job) * (scale if m.endswith("_s") else 1)
        for m in tracer.LAYER_METRICS
    }
    metrics["kurihara.nonvanishing_ratio"] = nonvanishing_ratio(traced[0]["result"]["results"])
    metrics["trace.overhead_ratio"] = scaled_median("traced", "wall_s") / wall
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{name}.spans.json").write_text(json.dumps(traced[-1]["result"]["spans"]))
    return metrics, jobs, scale


def probe_s() -> float:
    """Time of a fixed stdlib loop like the package's own exact arithmetic.

    Fraction sums whose big-int denominators grow, and tuple-keyed dict
    stores; about 0.24 s on a quiet 2-core Xeon at 2.1 GHz.
    """
    t0 = time.perf_counter()
    for _ in range(3):
        acc = Fraction(0)
        seen = {}
        for i in range(1, 8_000):
            acc += Fraction(i % 97, i)
            seen[i, i % 7] = acc.denominator % 1000
    return time.perf_counter() - t0


def machine() -> dict:
    model = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), model)
    except OSError:
        pass
    try:
        git = subprocess.run(
            ["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
            capture_output=True, text=True, check=False,
        )
        sha = git.stdout.strip() or None
    except OSError:
        sha = None
    files = sorted(SRC.rglob("*.py"))
    digest = hashlib.sha256(b"".join(f.read_bytes() for f in files)).hexdigest()
    lines = {str(f.relative_to(SRC.parent)): len(f.read_text().splitlines()) for f in files}
    return {
        "cpu_model": model,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "git_sha": sha,
        "src_sha256": digest,
        "src_lines": lines,
        "src_lines_total": sum(lines.values()),
        "probe_reference_s": PROBE_REFERENCE_S,
    }


def job_summary(job: dict) -> dict:
    keys = ("kind", "probe_s", "code", "elapsed_s", "wall_s", "setup_s", "peak_rss_mb", "cpu_s",
            "problems")
    return {k: job[k] for k in keys if k in job}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / "cli.py").is_file():
        print(f"error: no mazurtate sources under {SRC}", file=sys.stderr)
        return 2
    expected = load_expected()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    random.Random(args.seed).shuffle(names)
    spawn({"mode": "setup", "curves": [], "catalog": CATALOG})  # compile bytecode once

    metrics: dict[str, dict] = {}
    attempted = failed = 0
    record = {"seed": args.seed, "trace": args.trace, "seconds": args.seconds,
              "machine": machine(), "workloads": {}}
    for name in names:
        values, jobs, scale = run_workload(name, args.seed, args.seconds, bool(args.trace), expected)
        attempted += len(jobs)
        failed += sum(bool(j["problems"]) for j in jobs)
        record["workloads"][name] = {"scale": scale, "jobs": [job_summary(j) for j in jobs]}
        if values is None:
            problems = sorted({p for j in jobs for p in j["problems"]})
            print(f"error: {name}: no passing job of some kind: {problems}", file=sys.stderr)
            return 1
        prefix = f"{name}." if args.workload == "all" else ""
        for m, v in values.items():
            unit = END_TO_END_UNITS.get(m) or layer_unit(m)
            metrics[prefix + m] = {"value": v, "unit": unit}
            if args.workload == "all":
                print(f"{name:15} {m:31} {v:12.6g} {unit}")
        if args.workload == "all":
            errors = sum(bool(j["problems"]) for j in jobs)
            print(f"{name:15} {'error_rate':31} {errors / len(jobs):12.6g} ({errors}/{len(jobs)} jobs)")
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
