"""The benchmark's workloads and the output checks each run must pass.

Every workload is a fixed list of ``mazurtate`` CLI commands, run with
``--json --no-timing`` in one fresh interpreter.  The inputs never change,
so the outputs are exact; ``expected.json`` pins the output fields each
command checks and the names of the checks it must report as ``pass``.
Raw eigen-symbol vectors are not checked: their basis is an internal
representation, not a result.
"""

from __future__ import annotations

import json
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
CATALOG = "perfbench/curves.cat"  # relative to the checkout root
EXPECTED = BENCH_DIR / "expected.json"


def _cli(*argv: str) -> list[str]:
    return ["--json", "--no-timing", "--catalog", CATALOG, *argv]


def _qexp(*argv: str) -> list[str]:
    return ["--json", "--no-timing", "qexp", *argv]


WORKLOADS = {
    "msym-build": {
        "why": "symbol-space and eigen-symbol build dominate (dim 65 Hecke kernels at 389, "
        "O(N^2) P^1 orbits at 997); almost no path evaluation",
        "commands": [_cli("msym", "389a1"), _cli("msym", "--level", "997")],
        "setup_curves": ["389a1"],
        "checked": [
            ["dimension", "genus", "cusps", "value_plus_at_0"],
            ["dimension", "genus", "cusps"],
        ],
    },
    "plfunc-tower": {
        "why": "padic.layer_polynomial (big-int binomials) dominates a 3-adic tower to "
        "layer 7 mod 3^8; path evaluation is a small share",
        "commands": [_cli("plfunc", "11a1", "-p", "3", "-k", "8", "-n", "7")],
        "setup_curves": ["11a1"],
        "checked": [["alpha", "variant", "layers", "iwasawa"]],
    },
    "kurihara-table": {
        "why": "continued-fraction path evaluation and Fraction dot products dominate: "
        "91k path_vector calls over 29 squarefree moduli at level 37",
        "commands": [_cli("kurihara", "37a1", "-p", "3", "-k", "1", "--bound", "170", "--nu", "2")],
        "setup_curves": ["37a1"],
        "checked": [["admissible_primes", "table", "summary"]],
    },
    "qexp-siegel": {
        "why": "no modular symbols at all: CycElt and QSeries products over Q(zeta_L) "
        "dominate, so symbol-side changes should leave it unchanged",
        "commands": [
            _qexp("siegel", "--point", "1/7,2/7", "--c", "5", "--prec", "16"),
            _qexp("c-relation", "--point", "0/5,1/5", "--c", "7", "--d", "11", "--prec", "12"),
            _qexp("e00", "-k", "3", "--c", "5", "--aux", "3", "--prec", "40"),
        ],
        "setup_curves": [],
        "checked": [["grid", "lead_exponent", "truncation", "series"], [], ["series"]],
    },
}


def checked_outputs(workload: str, results: list[dict]) -> list[dict]:
    """The pinned part of each command's result: exit code, checked fields, checks.

    Raises ``ValueError`` when a command printed no JSON object.
    """
    picked = []
    for fields, res in zip(WORKLOADS[workload]["checked"], results, strict=True):
        report = json.loads(res["stdout"]) if res["code"] == 0 else {}
        picked.append({
            "code": res["code"],
            "outputs": {f: report.get("outputs", {}).get(f) for f in fields},
            "checks": {c["name"]: c["status"] for c in report.get("checks", [])},
        })
    return picked


def mismatches(workload: str, results: list[dict], expected: dict) -> list[str]:
    """Why a job's results differ from the recorded ones; empty when they agree.

    A command fails on a nonzero exit code, on any check whose status is
    not ``pass``, on a missing recorded check, or on a checked output
    field that differs from its recorded value.
    """
    try:
        got = checked_outputs(workload, results)
    except (ValueError, TypeError) as exc:
        return [f"unreadable output: {exc}"]
    problems = []
    for i, (cmd, want) in enumerate(zip(got, expected[workload], strict=True)):
        if cmd["code"] != 0:
            problems.append(f"command {i}: exit code {cmd['code']}")
            continue
        problems += [
            f"command {i}: check {name!r} is {status}"
            for name, status in cmd["checks"].items() if status != "pass"
        ]
        problems += [
            f"command {i}: check {name!r} missing"
            for name in want["checks"] if name not in cmd["checks"]
        ]
        problems += [
            f"command {i}: output {field!r} differs from the recorded value"
            for field, value in want["outputs"].items() if cmd["outputs"][field] != value
        ]
    return problems


def load_expected() -> dict:
    return json.loads(EXPECTED.read_text())
