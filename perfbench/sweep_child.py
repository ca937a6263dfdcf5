"""One cold paper sweep, run in a fresh process by ``worker.py``.

Runs every registered experiment except fig18 serially through the
experiment runner, against the empty artifact cache ``REPRO_CACHE_DIR``
names, and prints one JSON line: ``setup_s``, the CPU seconds (at
reference host speed) the process had used once the runner and every experiment module were
imported; ``cpu_s``, the sweep's CPU seconds at the reference host
speed of ``clock.py``, taken before each experiment; each experiment's runner
wall time and metric values; and the pipeline cycles the sweep
simulated.  ``--import-only`` prints ``setup_s`` alone and stops there.
``--spans PATH`` wraps the training, pipeline and artifact-cache layers,
adds their times and writes the spans to ``PATH``.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
import traceback

from clock import host_speed
from spans import SpanRecorder

#: fig18's width sweep trains for about 25 s alone, three times the
#: other experiments together
EXCLUDED = ("fig18",)


def install(spans: SpanRecorder) -> None:
    import repro.nalu.training as nalu_training
    from repro.bnn import BNNTrainer
    from repro.cpu import PipelinedCPU
    from repro.sim import ArtifactCache

    spans.wrap(BNNTrainer, "train", "training.bnn")
    spans.wrap(nalu_training, "train_task", "training.nalu")
    spans.wrap(PipelinedCPU, "run", "cpu.pipeline.run")

    def make(fetch):
        @functools.wraps(fetch)
        def traced_fetch(cache, namespace, key, builder):
            def traced_builder():
                with spans.span("cache.build"):
                    return builder()
            with spans.span("cache.fetch", namespace=namespace):
                return fetch(cache, namespace, key, traced_builder)
        return traced_fetch

    spans.patch(ArtifactCache, "fetch", make)


def layer_times(spans: SpanRecorder) -> dict:
    self_time = spans.self_times()

    def total(name):
        return sum(span.duration for span in spans.named(name))

    return {"training.bnn_s": total("training.bnn"),
            "training.nalu_s": total("training.nalu"),
            "cpu.pipeline.sweep_s": total("cpu.pipeline.run"),
            "cache.fetch_self_s": sum(self_time[span.id]
                                      for span in spans.named("cache.fetch"))}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="run one cold paper sweep")
    parser.add_argument("--spans", metavar="PATH",
                        help="trace the sweep and write its spans to PATH")
    parser.add_argument("--import-only", action="store_true",
                        help="print the set-up time and skip the sweep")
    args = parser.parse_args(argv)

    from repro.experiments.registry import all_experiments
    from repro.experiments.runner import run_experiment, run_meta
    from repro.sim import get_session

    names = [name for name in all_experiments() if name not in EXCLUDED]
    # the process clock starts with the process: interpreter start-up and
    # every import so far
    setup_s = time.process_time() * host_speed()
    if args.import_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    spans = SpanRecorder()
    if args.spans:
        install(spans)
    experiments = {}
    cpu_s = 0.0
    try:
        for name in names:
            speed = host_speed()
            start = time.process_time()
            try:
                result = run_experiment(name)
            except Exception:  # one broken experiment must not hide the rest
                traceback.print_exc()
                experiments[name] = {"error": True}
                continue
            cpu_s += (time.process_time() - start) * speed
            experiments[name] = {
                "wall_s": run_meta(result)["wall_time_s"],
                "metrics": [[metric.name, float(metric.measured)]
                            for metric in result.metrics]}
    finally:
        spans.restore()
    sweep = {"setup_s": setup_s,
             "cpu_s": cpu_s,
             "experiments": experiments,
             "pipeline_cycles": get_session().stats.get("cpu.pipeline.cycles")}
    if args.spans:
        sweep["layers"] = layer_times(spans)
        spans.write(args.spans)
    print(json.dumps(sweep))
    return 0


if __name__ == "__main__":
    sys.exit(main())
