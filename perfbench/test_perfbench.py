"""Tests of the benchmark itself: ``python3 -m pytest perfbench``.

Each command test runs the real ``run.py`` in a scratch checkout — a
copy of ``perfbench/`` and ``BENCHMARK.json`` beside a link to this
checkout's ``src`` — so a corrupted reference never touches the real
one.  The paper-sweep case runs one cold sweep and four processes that
only import.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from spans import SpanRecorder  # noqa: E402


def make_checkout(tmp_path, corrupt=None, with_src=True) -> Path:
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    if with_src:
        (tmp_path / "src").symlink_to(ROOT / "src")
    if corrupt is not None:
        path = tmp_path / "perfbench" / "reference.json"
        reference = json.loads(path.read_text())
        corrupt(reference)
        path.write_text(json.dumps(reference))
    return tmp_path


def run_bench(checkout: Path, workload: str, trace: int = 0):
    """``(exit status, the parsed last stdout line or None)``."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True, timeout=180)
    lines = proc.stdout.splitlines()
    return proc.returncode, json.loads(lines[-1]) if lines else None


def declared(kind: str) -> set:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"] for metric in spec[kind]}


def test_untraced_run_prints_every_end_to_end_metric(tmp_path):
    code, result = run_bench(make_checkout(tmp_path), "scenario-cpu-fast")
    assert code == 0
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == declared("end_to_end")
    assert all(metric["value"] > 0 for metric in result["metrics"].values())


def test_traced_run_prints_every_per_layer_metric(tmp_path):
    checkout = make_checkout(tmp_path)
    code, result = run_bench(checkout, "scenario-bnn", trace=1)
    assert code == 0 and result["correct"]
    assert set(result["metrics"]) == declared("per_layer")
    assert result["metrics"]["engine.predict_s"]["value"] > 0
    assert result["metrics"]["run.bnn.macs"]["value"] > 0
    spans = checkout / "perfbench" / "out" / "spans-scenario-bnn.jsonl"
    assert spans.stat().st_size > 0


def corrupt_dhrystone(reference):
    for entry in reference["dhrystone"].values():
        entry["state_sha256"] = "0" * 64


def corrupt_bnn(reference):
    reference["bnn"]["macs"] += 1


def corrupt_sweep(reference):
    first = next(iter(reference["sweep"].values()))
    first[0][1] += 1.0


@pytest.mark.parametrize("workload, corrupt", [
    ("scenario-cpu-fast", corrupt_dhrystone),
    ("scenario-bnn", corrupt_bnn),
    ("paper-sweep", corrupt_sweep),
])
def test_corrupted_reference_fails_the_run(tmp_path, workload, corrupt):
    code, result = run_bench(make_checkout(tmp_path, corrupt), workload)
    assert code == 1
    assert not result["correct"] and result["failed"] >= 1


def test_checkout_without_sources_prints_no_result(tmp_path):
    code, result = run_bench(make_checkout(tmp_path, with_src=False),
                             "scenario-cpu-fast")
    assert code != 0 and result is None


class Base:
    def inner(self):
        time.sleep(0.01)
        return "inner"


class Derived(Base):
    def outer(self):
        return self.inner()


def test_spans_nest_give_self_times_and_restore():
    original = vars(Derived)["outer"]
    recorder = SpanRecorder()
    recorder.wrap(Derived, "outer", "outer")
    recorder.wrap(Derived, "inner", "inner")  # inherited from Base
    assert Derived().outer() == "inner"
    recorder.restore()
    assert vars(Derived)["outer"] is original
    assert "inner" not in vars(Derived)
    (outer,), (inner,) = recorder.named("outer"), recorder.named("inner")
    assert inner.parent == outer.id and outer.parent is None
    self_time = recorder.self_times()
    assert self_time[outer.id] == pytest.approx(outer.duration
                                                - inner.duration)
    assert self_time[inner.id] == inner.duration
