"""Command-line interface: assemble, disassemble, run, and reproduce.

Usage::

    python -m repro asm prog.s [-o prog.hex] [--base 0x0]
    python -m repro dis prog.hex [--base 0x0]
    python -m repro run prog.s [--functional] [--engine NAME]
    python -m repro run --scenario examples/scenarios/dhrystone.json
    python -m repro experiments [PATTERN ...] [--engine NAME] [--profile NAME]
    python -m repro bench [PATTERN ...] [--quick] [--profile NAME]
    python -m repro scenario validate FILE [FILE ...]
    python -m repro scenario show FILE
    python -m repro fuzz [--count N] [--seed S]
    python -m repro serve [--scenario FILE] [--rate RPS] [--requests N]
    python -m repro loadgen [--arrival poisson] [--rate RPS] [--json]
    python -m repro attribute --scenario FILE [--engine NAME ...]
    python -m repro info [--json]

Progress chatter goes through the ``repro`` logger to stderr (``-v`` /
``--quiet`` / ``REPRO_LOG=level``); machine-readable documents
(``--json``, ``--stats-json``, ``--metrics-out``) own stdout.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.errors import ReproError
from repro.isa import assemble, disassemble
from repro.logutil import configure_logging, get_logger

logger = get_logger("cli")


def _read_text(path: str) -> str:
    with open(path) as handle:
        return handle.read()


def _parse_base(text: str) -> int:
    return int(text, 0)


class _EngineChoices(tuple):
    """``--engine`` choices: the registered names, which argparse lists.

    Membership also admits a retired name, so that the registry rejects
    it (exit 2, naming its replacement) instead of argparse.
    """

    def __contains__(self, name) -> bool:
        from repro.engine import RETIRED_ENGINES

        return tuple.__contains__(self, name) or name in RETIRED_ENGINES


def engine_choices() -> tuple:
    """Registered engine names for ``--engine`` (sorted, registry-fed)."""
    from repro.engine import engine_names

    return _EngineChoices(engine_names())


def profile_choices() -> tuple:
    """Registered device-profile names for ``--profile`` (sorted)."""
    from repro.power import profile_names

    return profile_names()


def cmd_asm(args: argparse.Namespace) -> int:
    program = assemble(_read_text(args.file), base=args.base)
    lines = [f"{word:08x}" for word in program.words]
    if args.output:
        with open(args.output, "w") as handle:
            handle.write("\n".join(lines) + "\n")
        print(f"{len(program.words)} words -> {args.output}")
    else:
        print("\n".join(lines))
    return 0


def cmd_dis(args: argparse.Namespace) -> int:
    words = [int(line, 16) for line in _read_text(args.file).split()]
    for line in disassemble(words, base=args.base):
        print(line)
    return 0


def _load_cli_scenario(args: argparse.Namespace):
    """Load ``--scenario FILE`` with CLI flags folded over file fields.

    Returns ``None`` when no ``--scenario`` was given.  File problems
    (missing path, malformed JSON, schema violations) raise
    :class:`~repro.errors.ConfigurationError`, which :func:`main` turns
    into a clean exit 2.
    """
    if not getattr(args, "scenario", None):
        return None
    from repro.scenario import Scenario

    scenario = Scenario.from_file(args.scenario)
    if getattr(args, "engine", None):
        scenario = scenario.with_engine(name=args.engine)
    if getattr(args, "functional", False):
        scenario = scenario.with_engine(prefer_functional=True)
    if getattr(args, "device_profile", None):
        scenario = scenario.with_profile(name=args.device_profile)
    return scenario


def cmd_run(args: argparse.Namespace) -> int:
    import dataclasses
    import json

    from repro.engine import resolve_engine
    from repro.errors import ConfigurationError
    from repro.sim import SimSession, get_session, set_session

    scenario = _load_cli_scenario(args)
    if scenario is not None:
        # the scenario becomes the session config: its seed/engine apply
        # and the config hash (hence every cached artifact) keys on it
        set_session(SimSession.from_scenario(scenario))
    session = get_session()
    if args.engine and args.engine != session.config.engine:
        # engine changes no architectural result, so swapping it on the
        # live session keeps the stats registry and cache intact
        session.config = dataclasses.replace(session.config,
                                             engine=args.engine)
    if (args.device_profile
            and args.device_profile != session.config.profile):
        # replace() re-runs __post_init__, so a typo'd name aborts here
        # with the registered-profile list (exit 2)
        session.config = dataclasses.replace(session.config,
                                             profile=args.device_profile)
    engine = resolve_engine(args.engine)

    if args.file is None:
        if scenario is None:
            raise ConfigurationError(
                "repro run: provide a program file, or --scenario FILE")
        if scenario.workload.kind == "bnn":
            # BNN scenarios have no program to assemble: classify the
            # scenario's seeded input batch through the accelerator's
            # engine-dispatched path and report the summary
            from repro.scenario.materialize import (
                run_scenario,
                scenario_signature,
            )

            summary = run_scenario(scenario, engine=session.config.engine)
            if args.stats_json:
                print(json.dumps(summary, indent=2, sort_keys=True))
                return 0
            _, detail = scenario_signature(scenario)
            print(f"scenario: {scenario.name} ({detail}) "
                  f"engine={summary['engine']}")
            print(f"batch={summary['batch_size']} "
                  f"total_cycles={summary['total_cycles']} "
                  f"macs={summary['macs']}")
            return 0
        from repro.scenario.materialize import build_program

        program = build_program(scenario)
    else:
        program = assemble(_read_text(args.file), base=args.base)
    prefer_functional = args.functional or (
        scenario is not None and scenario.engine.prefer_functional)

    tracer = None
    if args.trace or args.trace_jsonl or args.profile:
        from repro.trace import install_tracer

        # unbounded + unsampled so the profiler's attribution is exact
        tracer = install_tracer(get_session(), capacity=None)

    recorder = None
    if args.metrics_out or args.metrics_json:
        from repro.metrics import MetricsRecorder

        # snapshot-diff based: nothing touches the simulator hot path
        recorder = MetricsRecorder(get_session())
        recorder.__enter__()

    try:
        # the engine owns CPU construction and the step/cycle limit
        # semantics (fast engines count retired instructions, the
        # accurate pipeline counts cycles)
        cpu, result = engine.run_program(program, limit=args.max_cycles,
                                         prefer_functional=prefer_functional)
    finally:
        if recorder is not None:
            recorder.__exit__(None, None, None)
        if tracer is not None:
            from repro.trace import uninstall_tracer

            # detach so repeated in-process calls don't stack bridges;
            # the captured events stay readable for the exports below
            uninstall_tracer(get_session())
    exit_code = 0 if result.stop_reason in ("halt", "trans_bnn") else 1

    # with --stats-json, stdout carries exactly one parseable JSON document;
    # the human-readable summary moves to stderr
    out = sys.stderr if args.stats_json else sys.stdout
    stats = result.stats
    print(f"stop: {result.stop_reason} at pc={result.pc:#x}", file=out)
    print(f"cycles={stats.cycles} instructions={stats.instructions} "
          f"ipc={stats.ipc:.3f} stalls={stats.stalls} flushes={stats.flushes}",
          file=out)
    if args.regs:
        for index in range(0, 32, 4):
            row = "  ".join(f"x{i:<2}={cpu.regs.read(i):>10}"
                            for i in range(index, index + 4))
            print(row, file=out)

    if tracer is not None:
        from repro.trace import (
            build_report,
            render_report,
            write_chrome_trace,
            write_jsonl,
        )

        if args.trace:
            payload = write_chrome_trace(tracer, args.trace)
            logger.info("trace: %d events -> %s",
                        payload["otherData"]["n_events"], args.trace)
        if args.trace_jsonl:
            count = write_jsonl(tracer, args.trace_jsonl)
            logger.info("trace: %d events -> %s", count, args.trace_jsonl)
        if args.profile:
            print(render_report(build_report(tracer)), file=out)

    if recorder is not None:
        from repro.metrics import write_json, write_openmetrics

        collection = recorder.collection
        if args.metrics_out:
            write_openmetrics(collection, args.metrics_out)
            logger.info("metrics: %d series -> %s", len(collection),
                        args.metrics_out)
        if args.metrics_json:
            write_json(collection, args.metrics_json)
            logger.info("metrics: %d series -> %s", len(collection),
                        args.metrics_json)

    if args.stats_json:
        # printed before the non-zero exit path, stop reason included, so
        # scripted callers always get one parseable document on stdout
        payload = {"stop_reason": result.stop_reason, "pc": result.pc,
                   "exit_code": exit_code}
        payload.update(get_session().stats.as_dict())
        print(json.dumps(payload, indent=2, sort_keys=True, default=str))
    return exit_code


def cmd_experiments(args: argparse.Namespace) -> int:
    import dataclasses
    import os

    from repro.core.events import Timeline
    from repro.experiments.runner import (
        render_json,
        render_markdown,
        run_selected,
        select,
    )
    from repro.sim import (
        ENGINE_ENV_VAR,
        PROFILE_ENV_VAR,
        SimConfig,
        SimSession,
        set_session,
    )
    from repro.viz import render_timeline

    # fail fast: a bad REPRO_ENGINE or REPRO_PROFILE aborts here with the
    # registered list, before any experiment assembles programs or trains
    # models
    base = SimConfig.from_env()
    scenario = _load_cli_scenario(args)
    if scenario is not None:
        set_session(SimSession(SimConfig.from_scenario(
            scenario,
            cache_dir=args.cache_dir or base.cache_dir)))
        # parallel workers (-j) are separate processes; the environment
        # variables carry the engine/profile choice across the fork/spawn
        os.environ[ENGINE_ENV_VAR] = scenario.engine.name
        os.environ[PROFILE_ENV_VAR] = scenario.device.profile
    elif args.cache_dir or args.engine or args.device_profile:
        set_session(SimSession(dataclasses.replace(
            base,
            cache_dir=args.cache_dir or base.cache_dir,
            engine=args.engine or base.engine,
            profile=args.device_profile or base.profile,
        )))
    if args.engine:
        os.environ[ENGINE_ENV_VAR] = args.engine
    if args.device_profile:
        os.environ[PROFILE_ENV_VAR] = args.device_profile
    if args.patterns and not select(args.patterns):
        logger.error("no experiments match %r", " ".join(args.patterns))
        return 1
    results = run_selected(args.patterns or None,
                           use_cache=not args.no_cache, jobs=args.jobs,
                           trace_dir=args.trace_dir)
    if args.metrics_dir:
        from repro.experiments.runner import write_experiment_metrics

        written = write_experiment_metrics(results, args.metrics_dir)
        logger.info("metrics: %d documents -> %s", len(written),
                    args.metrics_dir)
    if args.json:
        print(render_json(results))
        return 0
    if args.markdown:
        print(render_markdown(results))
        return 0
    for result in results:
        print(result.to_table())
        if args.draw:
            for name, value in result.series.items():
                if isinstance(value, Timeline):
                    print(f"\n{name}:")
                    print(render_timeline(value))
                elif isinstance(value, dict):
                    for sub_name, sub_value in value.items():
                        if isinstance(sub_value, Timeline):
                            print(f"\n{name} / {sub_name}:")
                            print(render_timeline(sub_value))
        print()
    return 0


def chip_specs() -> dict:
    """The modelled chip specifications as a flat, JSON-ready mapping.

    Pinned to the NCPU 65 nm profile: these are the paper test chip's
    datasheet numbers (fixed 1.0 V / 0.4 V anchor points), not a
    function of the session's active device profile.
    """
    from repro.bnn import BNNAccelerator
    from repro.power import (
        DEFAULT_PROFILE,
        area_saving,
        bnn_profile,
        bnn_tops_per_watt,
        cpu_profile,
        frequency_model,
        heterogeneous_area,
        ncpu_area,
    )

    freq = frequency_model(DEFAULT_PROFILE)
    bnn = bnn_profile(DEFAULT_PROFILE)
    cpu = cpu_profile(DEFAULT_PROFILE)
    accelerator = BNNAccelerator()
    return {
        "technology_nm": 65,
        "frequency_mhz_at_1v": freq.f_mhz(1.0),
        "frequency_mhz_at_0v4": freq.f_mhz(0.4),
        "bnn_power_mw_at_1v": bnn.total_power_w(1.0) * 1e3,
        "bnn_power_mw_at_0v4": bnn.total_power_w(0.4) * 1e3,
        "cpu_power_mw_at_1v": cpu.total_power_w(1.0) * 1e3,
        "cpu_power_mw_at_0v4": cpu.total_power_w(0.4) * 1e3,
        "bnn_tops_per_watt_at_1v": bnn_tops_per_watt(
            1.0, device=DEFAULT_PROFILE),
        "bnn_tops_per_watt_at_0v4": bnn_tops_per_watt(
            0.4, device=DEFAULT_PROFILE),
        "ncpu_core_area_mm2": ncpu_area(100).total_mm2,
        "cpu_plus_bnn_area_mm2": heterogeneous_area(100).total_mm2,
        "area_saving_fraction": area_saving(100),
        "accelerator_physical_layers":
            accelerator.config.n_physical_layers,
        "accelerator_neurons_per_layer":
            accelerator.config.neurons_per_layer,
        "accelerator_peak_macs_per_cycle":
            accelerator.peak_ops_per_cycle(),
    }


def cmd_info(args: argparse.Namespace) -> int:
    import json

    from repro.engine import engine_table
    from repro.power import profile_table
    from repro.sim import get_session

    if args.json:
        # shares the run-manifest serializer so specs and metrics carry
        # the same identity block, and the registry serializers so the
        # engine/profile lists cannot drift from what actually dispatches
        from repro.metrics import RunManifest

        document = {
            "schema": "repro-info/1",
            "manifest": RunManifest.collect().as_dict(),
            "specs": chip_specs(),
            "engines": {
                "active": get_session().config.engine,
                "registered": engine_table(),
            },
            "profiles": {
                "active": get_session().config.profile,
                "registered": profile_table(),
            },
        }
        print(json.dumps(document, indent=2, sort_keys=True))
        return 0

    from repro.bnn import BNNAccelerator
    from repro.power import (
        DEFAULT_PROFILE,
        area_saving,
        bnn_profile,
        bnn_tops_per_watt,
        cpu_profile,
        frequency_model,
        heterogeneous_area,
        ncpu_area,
    )

    # spec block pinned to the paper chip (see chip_specs)
    freq = frequency_model(DEFAULT_PROFILE)
    bnn = bnn_profile(DEFAULT_PROFILE)
    cpu = cpu_profile(DEFAULT_PROFILE)
    print("NCPU reproduction — modelled chip specifications (65 nm)")
    print(f"  nominal frequency  : {freq.f_mhz(1.0):.0f} MHz at 1.0 V")
    print(f"  low-power point    : {freq.f_mhz(0.4):.0f} MHz at 0.4 V")
    print(f"  BNN power          : {bnn.total_power_w(1.0) * 1e3:.0f} mW "
          f"(1 V), {bnn.total_power_w(0.4) * 1e3:.1f} mW (0.4 V)")
    print(f"  CPU power          : {cpu.total_power_w(1.0) * 1e3:.0f} mW "
          f"(1 V), {cpu.total_power_w(0.4) * 1e3:.1f} mW (0.4 V)")
    print(f"  BNN efficiency     : "
          f"{bnn_tops_per_watt(1.0, device=DEFAULT_PROFILE):.2f} TOPS/W "
          f"(1 V), {bnn_tops_per_watt(0.4, device=DEFAULT_PROFILE):.2f} "
          f"TOPS/W (0.4 V peak)")
    print(f"  NCPU core area     : {ncpu_area(100).total_mm2:.3f} mm^2")
    print(f"  CPU+BNN baseline   : {heterogeneous_area(100).total_mm2:.3f} mm^2")
    print(f"  area saving        : {area_saving(100):.1%}")
    accelerator = BNNAccelerator()
    print(f"  accelerator array  : {accelerator.config.n_physical_layers} layers x "
          f"{accelerator.config.neurons_per_layer} neurons "
          f"({accelerator.peak_ops_per_cycle()} MACs/cycle)")
    active = get_session().config.engine
    print("execution engines (active marked *):")
    for entry in engine_table():
        marker = "*" if entry["name"] == active else " "
        # every capability flag, yes/no, in declaration order — so the
        # absence of a capability is as visible as its presence
        flags = ", ".join(f"{flag}={'yes' if value else 'no'}"
                          for flag, value in entry["capabilities"].items())
        print(f"  {marker} {entry['name']:<9}: {entry['description']}")
        print(f"    {'':>9}  [{flags}]")
    active_profile = get_session().config.profile
    print("device profiles (active marked *):")
    for entry in profile_table():
        marker = "*" if entry["name"] == active_profile else " "
        low, high = entry["vdd_range_v"]
        flags = ", ".join(f"{flag}={'yes' if value else 'no'}"
                          for flag, value in entry["flags"].items())
        print(f"  {marker} {entry['name']:<16}: {entry['title']}")
        print(f"    {'':>16}  {entry['technology_nm']:g} nm, "
              f"{low:g}-{high:g} V, {entry['f_nominal_mhz']:g} MHz, "
              f"{entry['accel_ops_per_cycle']} MACs/cycle")
        print(f"    {'':>16}  [{flags}]")
    _ = args
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    import json

    from repro.metrics import (
        all_benchmarks,
        run_benchmarks,
        write_bench_file,
    )
    from repro.metrics.bench import select as select_benchmarks
    from repro.sim import SimConfig

    # fail fast: surface a bad REPRO_ENGINE (with the registered-engine
    # list) before any benchmark assembles its kernel
    SimConfig.from_env()
    scenario = _load_cli_scenario(args)
    if args.list:
        for name, spec in sorted(all_benchmarks().items()):
            print(f"{name}: {spec.help} [{spec.unit}]")
        return 0
    if args.patterns and not select_benchmarks(args.patterns):
        logger.error("no benchmarks match %r", " ".join(args.patterns))
        return 1
    doc = run_benchmarks(args.patterns or None, repeats=args.repeats,
                         warmup=args.warmup, quick=args.quick,
                         with_experiments=not args.no_experiments,
                         scenario=scenario,
                         profile=args.device_profile)
    if not args.no_write:
        path = write_bench_file(doc, args.out_dir)
        logger.info("bench: trajectory -> %s", path)
    if args.json:
        print(json.dumps(doc, indent=2, sort_keys=True))
        return 0
    rows = [("benchmark", "median", "min", "iqr", "throughput")]
    for name, result in sorted(doc["benchmarks"].items()):
        wall = result["wall_s"]
        rows.append((name, f"{wall['median']:.4f}s", f"{wall['min']:.4f}s",
                     f"{wall['iqr']:.4f}s",
                     f"{result['throughput']['median']:.0f} "
                     f"{result['throughput']['unit']}"))
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    for row in rows:
        print("  ".join(cell.ljust(width)
                        for cell, width in zip(row, widths)).rstrip())
    if doc["experiments"]:
        print(f"(+ {len(doc['experiments'])} paper-anchor experiment "
              f"metrics recorded)")
    return 0


def cmd_attribute(args: argparse.Namespace) -> int:
    import json

    from repro.obs import (
        attribute_chained,
        attribute_scenario,
        attribution_document,
        render_attribution,
    )
    from repro.scenario import Scenario
    from repro.sim import SimSession, get_session, set_session

    scenario = Scenario.from_file(args.scenario)
    if args.device_profile:
        scenario = scenario.with_profile(name=args.device_profile)
    set_session(SimSession.from_scenario(scenario))
    session = get_session()

    tracer = None
    if args.trace:
        from repro.trace import install_tracer

        tracer = install_tracer(session, capacity=None)
    recorder = None
    if args.metrics_out or args.metrics_json:
        from repro.metrics import MetricsRecorder

        recorder = MetricsRecorder(session)
        recorder.__enter__()

    # --engine repeats for A/B; default is the scenario's own engine
    engines = args.engine or [scenario.engine.name]
    runs = []
    try:
        for name in engines:
            runs.append(attribute_scenario(scenario, engine=name))
            if args.chained:
                runs.append(attribute_chained(scenario, engine=name))
    finally:
        if recorder is not None:
            recorder.__exit__(None, None, None)
        if tracer is not None:
            from repro.trace import uninstall_tracer

            uninstall_tracer(session)

    document = attribution_document(runs, scenario)
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(document, handle, indent=2, sort_keys=True)
            handle.write("\n")
        logger.info("attribution: %d runs -> %s", len(runs), args.out)
    if tracer is not None and args.trace:
        from repro.trace import write_chrome_trace

        payload = write_chrome_trace(tracer, args.trace)
        logger.info("trace: %d events -> %s",
                    payload["otherData"]["n_events"], args.trace)
    if recorder is not None:
        collection = recorder.collection
        for attribution in runs:
            collection.add_phase_attribution(attribution)
        from repro.metrics import write_json, write_openmetrics

        if args.metrics_out:
            write_openmetrics(collection, args.metrics_out)
            logger.info("metrics: %d series -> %s", len(collection),
                        args.metrics_out)
        if args.metrics_json:
            write_json(collection, args.metrics_json)
            logger.info("metrics: %d series -> %s", len(collection),
                        args.metrics_json)
    if args.json:
        print(json.dumps(document, indent=2, sort_keys=True))
    else:
        print(render_attribution(runs), end="")
    return 0


def cmd_scenario(args: argparse.Namespace) -> int:
    from repro.scenario import Scenario
    from repro.scenario.materialize import scenario_signature

    if args.action == "validate":
        for path in args.files:
            scenario = Scenario.from_file(path)
            kind, detail = scenario_signature(scenario)
            print(f"ok: {path} — {scenario.name} "
                  f"[{kind}: {detail}, engine={scenario.engine.name}, "
                  f"hash {scenario.hash}]")
        return 0
    # show: one canonical JSON document on stdout
    print(Scenario.from_file(args.file).to_json())
    return 0


def cmd_fuzz(args: argparse.Namespace) -> int:
    import json

    from repro.scenario.fuzz import fuzz
    from repro.scenario.materialize import scenario_signature

    def progress(result) -> None:
        kind, detail = scenario_signature(result.scenario)
        status = "ok" if result.ok else "MISMATCH"
        logger.info("fuzz %s: %s (%s) %s", result.scenario.name, kind,
                    detail, status)

    from repro.engine import ensure_known

    engines = [name for token in (args.engines or [])
               for name in token.split(",") if name]
    for name in engines:
        ensure_known(name)
    results = fuzz(count=args.count, seed=args.seed,
                   engines=engines or None,
                   kinds=tuple(args.kind) if args.kind else ("bnn", "cpu"),
                   on_result=progress)
    failures = [result for result in results if not result.ok]
    if args.json:
        print(json.dumps([result.to_dict() for result in results],
                         indent=2, sort_keys=True))
    else:
        engines = ", ".join(results[0].engines) if results else "-"
        print(f"fuzz: {len(results)} scenarios x [{engines}] — "
              f"{len(results) - len(failures)} agreed, "
              f"{len(failures)} mismatched (seed {args.seed})")
        for result in failures:
            _, detail = scenario_signature(result.scenario)
            print(f"  {result.scenario.name} ({detail}):")
            for mismatch in result.mismatches:
                print(f"    {mismatch}")
    return 1 if failures else 0


def _serve_scenario_from_args(args: argparse.Namespace):
    """The serve scenario: file (or default) with serve flags folded in."""
    from repro.scenario import Scenario

    scenario = (Scenario.from_file(args.scenario) if args.scenario
                else Scenario(name="serve"))
    if getattr(args, "engine", None):
        scenario = scenario.with_engine(name=args.engine)
    return scenario.with_serve(
        arrival=args.arrival, rate_rps=args.rate, requests=args.requests,
        burst_factor=args.burst_factor, batch_window_ms=args.batch_window,
        max_batch=args.max_batch, max_queue_depth=args.max_queue_depth,
        timeout_ms=args.timeout, latency_budget_ms=args.budget,
        slo_target=args.slo_target)


def cmd_serve(args: argparse.Namespace) -> int:
    import json

    from repro.serve import (
        add_serve_metrics,
        render_slo_report,
        serve_scenario,
        validate_slo_report,
        write_slo_report,
    )
    from repro.sim import SimSession, get_session, set_session

    scenario = _serve_scenario_from_args(args)
    set_session(SimSession.from_scenario(scenario))
    session = get_session()

    tracer = None
    if args.trace or args.trace_jsonl:
        from repro.trace import install_tracer

        # unbounded: a wrapped ring buffer would silently lose request
        # lanes (the dropped count would say so, but keep them all)
        tracer = install_tracer(session, capacity=None)
    recorder = None
    if args.metrics_out or args.metrics_json:
        from repro.metrics import MetricsRecorder

        recorder = MetricsRecorder(session)
        recorder.__enter__()

    try:
        report, server = serve_scenario(scenario, session=session,
                                        with_server=True)
    finally:
        if recorder is not None:
            recorder.__exit__(None, None, None)
        if tracer is not None:
            from repro.trace import uninstall_tracer

            uninstall_tracer(session)

    validate_slo_report(report)
    spec = scenario.serve
    if args.out:
        write_slo_report(report, args.out)
        logger.info("serve: SLO report -> %s", args.out)
    if tracer is not None:
        from repro.trace import write_chrome_trace, write_jsonl

        if args.trace:
            payload = write_chrome_trace(tracer, args.trace)
            logger.info("trace: %d events -> %s",
                        payload["otherData"]["n_events"], args.trace)
        if args.trace_jsonl:
            count = write_jsonl(tracer, args.trace_jsonl)
            logger.info("trace: %d events -> %s", count, args.trace_jsonl)
    if recorder is not None:
        from repro.metrics import write_json, write_openmetrics

        collection = recorder.collection
        add_serve_metrics(
            collection, server.recorder,
            budget_s=spec.latency_budget_ms / 1e3, wall_s=server.wall_s,
            labels={"engine": server.engine.name,
                    "arrival": spec.arrival},
            trace_dropped=tracer.dropped if tracer is not None else 0)
        if args.metrics_out:
            write_openmetrics(collection, args.metrics_out)
            logger.info("metrics: %d series -> %s", len(collection),
                        args.metrics_out)
        if args.metrics_json:
            write_json(collection, args.metrics_json)
            logger.info("metrics: %d series -> %s", len(collection),
                        args.metrics_json)
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(render_slo_report(report), end="")
    met = report["slo"]["met"]
    if args.check_slo and not met:
        logger.error("serve: SLO MISSED (attainment %.4f < target %.4f)",
                     report["slo"]["attainment"], report["slo"]["target"])
        return 1
    return 0


def cmd_loadgen(args: argparse.Namespace) -> int:
    import json

    from repro.serve import arrival_offsets, summarize_offsets

    offsets = arrival_offsets(args.arrival, args.rate, args.requests,
                              seed=args.seed,
                              burst_factor=args.burst_factor)
    summary = summarize_offsets(offsets)
    if args.json:
        print(json.dumps({"schema": "repro-loadgen/1",
                          "arrival": args.arrival, "rate_rps": args.rate,
                          "seed": args.seed,
                          "burst_factor": args.burst_factor,
                          "summary": summary, "offsets_s": offsets},
                         indent=2, sort_keys=True))
        return 0
    print(f"loadgen: {args.arrival} x{args.requests} at {args.rate:g} rps "
          f"(seed {args.seed})")
    print(f"  duration={summary['duration_s']:.4f}s "
          f"achieved={summary['mean_rate_rps']:.1f} rps "
          f"gaps=[{summary['min_gap_s'] * 1e3:.3f}, "
          f"{summary['max_gap_s'] * 1e3:.3f}] ms")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="NCPU (MICRO 2020) reproduction toolkit",
    )
    parser.add_argument("-v", "--verbose", action="count", default=0,
                        help="more status chatter on stderr (-v info, "
                             "-vv debug); REPRO_LOG=level sets the default")
    parser.add_argument("--quiet", action="store_true",
                        help="only errors on stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    # resolved once: every subparser shares the same registry-fed tuples
    # instead of re-importing the registries per --engine/--profile flag
    engines = engine_choices()
    profiles = profile_choices()

    asm = sub.add_parser("asm", help="assemble a RISC-V source file")
    asm.add_argument("file")
    asm.add_argument("-o", "--output")
    asm.add_argument("--base", type=_parse_base, default=0)
    asm.set_defaults(func=cmd_asm)

    dis = sub.add_parser("dis", help="disassemble a hex word file")
    dis.add_argument("file")
    dis.add_argument("--base", type=_parse_base, default=0)
    dis.set_defaults(func=cmd_dis)

    run = sub.add_parser("run", help="assemble and execute a program "
                                     "(or a declarative scenario)")
    run.add_argument("file", nargs="?",
                     help="assembly source to run; optional with "
                          "--scenario (the scenario's workload runs)")
    run.add_argument("--scenario", metavar="FILE",
                     help="scenario JSON driving the run (engine, seed, "
                          "workload); explicit flags and the positional "
                          "file override scenario fields")
    run.add_argument("--base", type=_parse_base, default=0)
    run.add_argument("--functional", action="store_true",
                     help="use the functional ISS instead of the pipeline")
    run.add_argument("--engine", choices=engines,
                     help="execution engine: 'accurate' (default) keeps the "
                          "cycle-accurate pipeline / functional ISS, the "
                          "others swap in faster host-side backends with "
                          "identical architectural results; REPRO_ENGINE "
                          "sets the default")
    run.add_argument("--device-profile", choices=profiles,
                     metavar="NAME", dest="device_profile",
                     help="device profile pricing the power models "
                          "(default ncpu-65nm, or the scenario's "
                          "device.profile; REPRO_PROFILE sets the "
                          "session default). NOTE: --profile here is the "
                          "hot-spot profiler flag, not a device choice")
    run.add_argument("--regs", action="store_true",
                     help="dump the register file after the run")
    run.add_argument("--stats-json", action="store_true",
                     help="print one JSON document (stop reason + stats "
                          "registry) on stdout; summary moves to stderr")
    run.add_argument("--trace", metavar="PATH",
                     help="write a Chrome/Perfetto trace-event JSON "
                          "(load in ui.perfetto.dev)")
    run.add_argument("--trace-jsonl", metavar="PATH",
                     help="write the raw event stream as JSONL")
    run.add_argument("--profile", action="store_true",
                     help="print hot-spot / stall-attribution / layer "
                          "profile (pipelined runs)")
    run.add_argument("--metrics-out", metavar="PATH",
                     help="write OpenMetrics text exposition of the run "
                          "(stats-registry deltas + wall time, manifest-"
                          "labelled)")
    run.add_argument("--metrics-json", metavar="PATH",
                     help="write the same metrics as a stable-ordered "
                          "JSON document")
    run.add_argument("--max-cycles", type=int, default=10_000_000)
    run.set_defaults(func=cmd_run)

    exp = sub.add_parser("experiments",
                         help="reproduce the paper's tables/figures")
    exp.add_argument("patterns", nargs="*",
                     help="substring filters, e.g. fig13 table2")
    exp.add_argument("--draw", action="store_true",
                     help="render any timelines as ASCII lanes")
    exp.add_argument("-j", "--jobs", type=int, default=1,
                     help="run experiments in N parallel processes")
    exp.add_argument("--json", action="store_true",
                     help="emit machine-readable JSON results")
    exp.add_argument("--markdown", action="store_true",
                     help="emit EXPERIMENTS.md-style markdown")
    exp.add_argument("--no-cache", action="store_true",
                     help="ignore and do not update the artifact cache")
    exp.add_argument("--cache-dir",
                     help="artifact cache root (default ~/.cache/repro, "
                          "or $REPRO_CACHE_DIR)")
    exp.add_argument("--trace-dir", metavar="DIR",
                     help="trace each executed experiment into "
                          "DIR/<name>.trace.json (Perfetto format)")
    exp.add_argument("--metrics-dir", metavar="DIR",
                     help="write per-experiment metrics JSON plus an "
                          "aggregate OpenMetrics file into DIR")
    exp.add_argument("--scenario", metavar="FILE",
                     help="scenario JSON configuring the session (engine, "
                          "seed); --engine and --cache-dir override its "
                          "fields")
    exp.add_argument("--engine", choices=engines,
                     help="execution engine for the session (the fast "
                          "engines swap in batched BNN kernels; results "
                          "are identical)")
    exp.add_argument("--profile", "--device-profile", choices=profiles,
                     metavar="NAME", dest="device_profile",
                     help="device profile pricing the power models "
                          "(default: the scenario's device.profile, else "
                          "ncpu-65nm); changes physical results — paper "
                          "anchors only hold on the default")
    exp.set_defaults(func=cmd_experiments)

    benchp = sub.add_parser("bench",
                            help="run the registered micro-benchmarks and "
                                 "write a BENCH_<timestamp>.json")
    benchp.add_argument("patterns", nargs="*",
                        help="substring filters, e.g. cpu dma")
    benchp.add_argument("--list", action="store_true",
                        help="list the registered benchmarks and exit")
    benchp.add_argument("--quick", action="store_true",
                        help="smoke mode: small workloads, <=2 repeats, "
                             "no warmup")
    benchp.add_argument("--repeats", type=int, default=5,
                        help="timed repeats per benchmark (default 5)")
    benchp.add_argument("--warmup", type=int, default=1,
                        help="untimed warmup runs per benchmark (default 1)")
    benchp.add_argument("--out-dir", default=".",
                        help="directory for the BENCH trajectory file "
                             "(default: repo root / cwd)")
    benchp.add_argument("--no-write", action="store_true",
                        help="measure only; do not write a BENCH file")
    benchp.add_argument("--no-experiments", action="store_true",
                        help="skip the paper-anchor experiment metrics")
    benchp.add_argument("--scenario", metavar="FILE",
                        help="scenario JSON configuring the bench session "
                             "(engine, seed); recorded in the BENCH "
                             "document")
    benchp.add_argument("--profile", "--device-profile", choices=profiles,
                        metavar="NAME", dest="device_profile",
                        help="device profile for the measurement sessions "
                             "and anchor experiments (recorded in the "
                             "BENCH document; baseline.json expectations "
                             "only hold on the default)")
    benchp.add_argument("--json", action="store_true",
                        help="print the BENCH document on stdout")
    benchp.set_defaults(func=cmd_bench)

    scen = sub.add_parser("scenario",
                          help="validate or canonicalize scenario JSON "
                               "files")
    scen_sub = scen.add_subparsers(dest="action", required=True)
    scen_validate = scen_sub.add_parser(
        "validate", help="validate scenario files against the schema")
    scen_validate.add_argument("files", nargs="+", metavar="FILE")
    scen_validate.set_defaults(func=cmd_scenario)
    scen_show = scen_sub.add_parser(
        "show", help="print one scenario's canonical JSON form")
    scen_show.add_argument("file", metavar="FILE")
    scen_show.set_defaults(func=cmd_scenario)

    fuzz = sub.add_parser("fuzz",
                          help="differentially fuzz random scenarios "
                               "across every registered engine")
    fuzz.add_argument("--count", type=int, default=25,
                      help="number of random scenarios (default 25)")
    fuzz.add_argument("--seed", type=int, default=0,
                      help="fuzzer seed; the same seed replays the same "
                           "scenario sequence (default 0)")
    fuzz.add_argument("--engines", nargs="+", metavar="NAME",
                      help="engines to compare, space- or comma-separated "
                           "(default: every registered engine; first is "
                           "the oracle)")
    fuzz.add_argument("--kind", nargs="+", choices=("bnn", "cpu"),
                      help="restrict generated workload kinds")
    fuzz.add_argument("--json", action="store_true",
                      help="print per-scenario results as JSON")
    fuzz.set_defaults(func=cmd_fuzz)

    serve = sub.add_parser("serve",
                           help="serve a BNN scenario under an open-loop "
                                "arrival schedule and report SLO "
                                "attainment")
    serve.add_argument("--scenario", metavar="FILE",
                       help="scenario JSON with an optional 'serve' block "
                            "(default: the built-in paper-shaped BNN "
                            "scenario); serve flags below override its "
                            "fields")
    serve.add_argument("--engine", choices=engines,
                       help="execution engine batches dispatch to "
                            "(default: the scenario's engine)")
    serve.add_argument("--requests", type=int,
                       help="number of requests to drive")
    serve.add_argument("--rate", type=float, metavar="RPS",
                       help="mean arrival rate in requests/second")
    serve.add_argument("--arrival", choices=("poisson", "uniform",
                                             "bursty"),
                       help="arrival process (default poisson)")
    serve.add_argument("--burst-factor", type=float, metavar="F",
                       help="bursty ON-window rate multiplier")
    serve.add_argument("--batch-window", type=float, metavar="MS",
                       help="batching window: max wait after the first "
                            "request of a batch")
    serve.add_argument("--max-batch", type=int, metavar="N",
                       help="max requests coalesced into one engine batch")
    serve.add_argument("--max-queue-depth", type=int, metavar="N",
                       help="queue depth beyond which requests are shed")
    serve.add_argument("--timeout", type=float, metavar="MS",
                       help="queue age beyond which requests time out")
    serve.add_argument("--budget", type=float, metavar="MS",
                       help="per-request latency budget the SLO gates on")
    serve.add_argument("--slo-target", type=float, metavar="FRACTION",
                       help="required fraction of requests within budget")
    serve.add_argument("--check-slo", action="store_true",
                       help="exit 1 when the SLO target is missed")
    serve.add_argument("--out", metavar="PATH",
                       help="write the SLO report JSON document to PATH")
    serve.add_argument("--json", action="store_true",
                       help="print the SLO report JSON on stdout instead "
                            "of markdown")
    serve.add_argument("--trace", metavar="PATH",
                       help="write a Chrome/Perfetto trace with "
                            "per-request lifecycle lanes (serve.reqNN), "
                            "batch spans and queue-depth counters")
    serve.add_argument("--trace-jsonl", metavar="PATH",
                       help="write the raw event stream as JSONL")
    serve.add_argument("--metrics-out", metavar="PATH",
                       help="write OpenMetrics text exposition: latency "
                            "quantiles, per-phase quantiles, admission "
                            "counters, queue gauges")
    serve.add_argument("--metrics-json", metavar="PATH",
                       help="write the same metrics as a stable-ordered "
                            "JSON document")
    serve.set_defaults(func=cmd_serve)

    load = sub.add_parser("loadgen",
                          help="preview a deterministic open-loop arrival "
                               "schedule (no server)")
    load.add_argument("--arrival", choices=("poisson", "uniform", "bursty"),
                      default="poisson",
                      help="arrival process (default poisson)")
    load.add_argument("--rate", type=float, default=500.0, metavar="RPS",
                      help="mean arrival rate in requests/second "
                           "(default 500)")
    load.add_argument("--requests", type=int, default=64,
                      help="schedule length (default 64)")
    load.add_argument("--seed", type=int, default=0,
                      help="schedule seed; same tuple replays the same "
                           "offsets (default 0)")
    load.add_argument("--burst-factor", type=float, default=4.0,
                      metavar="F",
                      help="bursty ON-window rate multiplier (default 4)")
    load.add_argument("--json", action="store_true",
                      help="print the schedule (offsets + summary) as "
                           "JSON")
    load.set_defaults(func=cmd_loadgen)

    att = sub.add_parser("attribute",
                         help="split a scenario run into the six obs "
                              "phases (simulated cycles + host wall time)")
    att.add_argument("--scenario", metavar="FILE", required=True,
                     help="scenario JSON naming the workload to attribute")
    att.add_argument("--engine", action="append", choices=engines,
                     metavar="NAME",
                     help="engine to attribute; repeat for an A/B "
                          "comparison across engines (default: the "
                          "scenario's engine)")
    att.add_argument("--profile", "--device-profile", choices=profiles,
                     metavar="NAME", dest="device_profile",
                     help="device profile the attributed runs are priced "
                          "under (default: the scenario's device.profile)")
    att.add_argument("--chained", action="store_true",
                     help="also attribute a two-core chained end-to-end "
                          "inference (bnn scenarios with >= 2 layers)")
    att.add_argument("--json", action="store_true",
                     help="print the attribution document as JSON instead "
                          "of markdown tables")
    att.add_argument("--out", metavar="PATH",
                     help="also write the attribution JSON document to "
                          "PATH")
    att.add_argument("--trace", metavar="PATH",
                     help="write a Chrome/Perfetto trace of the attributed "
                          "runs (obs.* phase tracks + bnn.parallel.* "
                          "shard lanes)")
    att.add_argument("--metrics-out", metavar="PATH",
                     help="write OpenMetrics gauges/histograms of the "
                          "attribution (per-phase cycles, wall seconds, "
                          "fractions, shard samples)")
    att.add_argument("--metrics-json", metavar="PATH",
                     help="write the same metrics as a stable-ordered "
                          "JSON document")
    att.set_defaults(func=cmd_attribute)

    info = sub.add_parser("info", help="print the modelled chip specs")
    info.add_argument("--json", action="store_true",
                      help="emit the specs as machine-readable JSON "
                           "(with the run manifest)")
    info.set_defaults(func=cmd_info)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    configure_logging(verbosity=args.verbose, quiet=args.quiet)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
