"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

For every workload it runs one traced and one untraced CLI job and fails
unless both pass the recorded output checks, their checked outputs are
identical, and the traced job left no wrapper in the package.  It prints
``trace.overhead_ratio`` (traced wall_s / untraced wall_s) and the three
largest per-layer self times of each workload.  When ``BENCHMARK.json``
is present it must name exactly the workloads and metrics run.py reports.
"""

from __future__ import annotations

import json
import sys

import run
import tracer
from workloads import WORKLOADS, checked_outputs, load_expected


def check_benchmark_json() -> list[str]:
    path = run.ROOT / "BENCHMARK.json"
    if not path.is_file():
        return []
    spec = json.loads(path.read_text())
    problems = []
    pairs = [
        ("workloads", [w["name"] for w in spec["workloads"]], list(WORKLOADS)),
        ("end_to_end", [m["name"] for m in spec["end_to_end"]], list(run.END_TO_END_UNITS)),
        ("per_layer", [m["name"] for m in spec["per_layer"]], run.LAYER_NAMES),
    ]
    for key, listed, reported in pairs:
        if listed != reported:
            problems.append(f"BENCHMARK.json {key} {listed} != run.py {reported}")
    for m in spec["end_to_end"]:
        if m["unit"] != run.END_TO_END_UNITS.get(m["name"]):
            problems.append(f"BENCHMARK.json unit of {m['name']} is {m['unit']}")
    for m in spec["per_layer"]:
        if m["unit"] != run.layer_unit(m["name"]):
            problems.append(f"BENCHMARK.json unit of {m['name']} is {m['unit']}")
    return problems


def main() -> int:
    problems = check_benchmark_json()
    expected = load_expected()
    for name in WORKLOADS:
        traced = run.run_job("traced", name, expected)
        plain = run.run_job("wall", name, expected)
        problems += [f"{name} traced: {p}" for p in traced["problems"]]
        problems += [f"{name} untraced: {p}" for p in plain["problems"]]
        if traced["problems"] or plain["problems"]:
            continue
        if checked_outputs(name, traced["result"]["results"]) != checked_outputs(
            name, plain["result"]["results"]
        ):
            problems.append(f"{name}: traced and untraced checked outputs differ")
        layers = tracer.layer_metrics(traced["result"]["spans"])
        top = sorted(
            (m for m in layers if m.endswith("_s")), key=layers.get, reverse=True
        )[:3]
        shown = ", ".join(f"{m}={layers[m]:.3f}s" for m in top)
        ratio = traced["wall_s"] / plain["wall_s"]
        print(f"{name:15} trace.overhead_ratio={ratio:.3f}  top self times: {shown}")
    for p in problems:
        print(f"FAIL {p}", file=sys.stderr)
    print("self-test", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
