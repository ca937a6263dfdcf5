"""perfbench: the reproduction's end-to-end benchmark command.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N] [--seconds S]
    python3 perfbench/run.py --write-reference

Every workload runs in a fresh process (``worker.py``) on this
checkout's ``src`` with the artifact cache disabled.  Its raw numbers
are matched against the metric lists in ``BENCHMARK.json`` and printed
with their units as one JSON object on the last line of stdout:
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics and ``--trace 1`` the per-layer ones (a
layer the workload never calls reads 0).  ``--workload all`` prints a
table instead, one row per workload.

Exit status: 0 when every output matched its reference, 1 when one did
not, and 2, with no result printed, when the checkout has no
``src/repro`` or a workload process failed.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
#: a run must end within 180 s; the worker gets all but start-up
WORKER_TIMEOUT_S = 170.0


class BenchError(Exception):
    """The benchmark could not produce a result."""


def worker_env() -> dict:
    """This checkout's sources, no artifact cache, no ``REPRO_*``
    overrides, and one BLAS thread (steadier timings on a small host)."""
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env.update(PYTHONPATH=str(ROOT / "src"), REPRO_NO_CACHE="1",
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    return env


def run_worker(*args: str) -> str:
    """Run ``worker.py`` in a session of its own and return its stdout.
    On overrun the whole session — worker and any sweep child — is
    killed."""
    proc = subprocess.Popen([sys.executable, str(BENCH / "worker.py"), *args],
                            cwd=ROOT, env=worker_env(),
                            stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"worker ran past {WORKER_TIMEOUT_S:.0f} s") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with status {proc.returncode}")
    return out


def measure(spec: dict, workload: str, seed: int, seconds: float,
            trace: int) -> dict:
    """One workload run, as the result object this command prints."""
    out = run_worker("--workload", workload, "--seed", str(seed),
                     "--seconds", str(seconds), "--trace", str(trace))
    raw = json.loads(out.splitlines()[-1])
    declared = spec["per_layer" if trace else "end_to_end"]
    names = {metric["name"] for metric in declared}
    undeclared = sorted(set(raw["metrics"]) - names)
    missing = [] if trace else sorted(names - set(raw["metrics"]))
    if undeclared or missing:
        raise BenchError(f"{workload}: undeclared metrics {undeclared}, "
                         f"missing metrics {missing}")
    metrics = {metric["name"]: {"value": raw["metrics"].get(metric["name"], 0),
                                "unit": metric["unit"]}
               for metric in declared}
    return {"correct": raw["correct"], "attempted": raw["attempted"],
            "failed": raw["failed"], "metrics": metrics}


def render_table(spec: dict, results: dict) -> str:
    """End-to-end metrics with their units, one row per workload."""
    metrics = spec["end_to_end"]
    rows = [["workload"] + [f"{m['name']} ({m['unit']})" for m in metrics]
            + ["failed/attempted", "correct"]]
    for workload, result in results.items():
        rows.append([workload]
                    + [f"{result['metrics'][m['name']]['value']:.6g}"
                       for m in metrics]
                    + [f"{result['failed']}/{result['attempted']}",
                       str(result["correct"]).lower()])
    widths = [max(len(row[column]) for row in rows)
              for column in range(len(rows[0]))]
    return "\n".join("  ".join(cell.ljust(width)
                               for cell, width in zip(row, widths)).rstrip()
                     for row in rows)


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [workload["name"] for workload in spec["workloads"]]
    parser = argparse.ArgumentParser(prog="perfbench/run.py",
                                     description="run the end-to-end "
                                                 "benchmark")
    parser.add_argument("--workload", choices=workloads + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="regenerate perfbench/reference.json")
    args = parser.parse_args(argv)
    if args.workload is None and not args.write_reference:
        parser.error("--workload is required")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: {ROOT} has no src/repro to measure",
              file=sys.stderr)
        return 2
    try:
        if args.write_reference:
            run_worker("--write-reference")
            return 0
        if args.workload == "all":
            results = {workload: measure(spec, workload, args.seed,
                                         args.seconds, 0)
                       for workload in workloads}
            print(render_table(spec, results))
            return 0 if all(result["correct"]
                            for result in results.values()) else 1
        result = measure(spec, args.workload, args.seed, args.seconds,
                         args.trace)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
