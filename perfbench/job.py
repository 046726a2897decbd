"""One cold benchmark job, run by run.py in a fresh interpreter.

    python3 perfbench/job.py '<spec as JSON>'

with ``src`` on PYTHONPATH.  Spec modes:

- ``{"mode": "setup", "curves": [...], "catalog": path}`` times
  ``import mazurtate`` plus ``curve_by_label`` and ``eigen_pair`` for each
  curve, and prints ``{"setup_s": ...}``.
- ``{"mode": "cli", "commands": [[argv...], ...], "trace": bool}`` calls
  ``mazurtate.cli.main(argv)`` in-process for each command, capturing its
  standard output, and prints the outputs, exit codes, the monotonic
  clock reading at the last command's return and the peak RSS.  With
  ``trace`` the package is wrapped by ``tracer.Tracer`` first, and the
  spans and any wrappers left after ``uninstall`` are printed too.

Nothing but the standard library is imported before the timed work.
"""

import io
import json
import sys
import time
from contextlib import redirect_stdout


def monotonic() -> float:
    # the same clock in every process, so run.py can subtract its own reading
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def peak_rss_kib() -> int:
    """High-water RSS of this interpreter's own address space (Linux).

    Not ``ru_maxrss``: across ``exec`` that keeps the RSS of the process
    that spawned the interpreter, which can exceed a small job's own.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))


def run_setup(spec: dict) -> dict:
    t0 = time.perf_counter()
    import mazurtate  # noqa: F401
    from mazurtate.curves import curve_by_label
    from mazurtate.theta import eigen_pair

    for label in spec["curves"]:
        eigen_pair(curve_by_label(label, spec["catalog"]))
    return {"setup_s": time.perf_counter() - t0}


def run_cli(spec: dict) -> dict:
    import mazurtate.cli

    tracer = None
    if spec["trace"]:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()
    results = []
    for argv in spec["commands"]:
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = mazurtate.cli.main(argv)
        results.append({"code": code, "stdout": buf.getvalue()})
    t_end = monotonic()
    out = {"t_end": t_end, "results": results, "peak_rss_kib": peak_rss_kib()}
    if tracer is not None:
        tracer.uninstall()
        out["spans"] = tracer.spans()
        out["leftover_wrappers"] = tracing.leftover_wrappers()
    return out


def main() -> None:
    spec = json.loads(sys.argv[1])
    result = run_setup(spec) if spec["mode"] == "setup" else run_cli(spec)
    json.dump(result, sys.stdout)


if __name__ == "__main__":
    main()
