"""Command-line interface: assemble, disassemble, run, and reproduce.

Usage::

    python -m repro asm prog.s [-o prog.hex] [--base 0x0]
    python -m repro dis prog.hex [--base 0x0]
    python -m repro run prog.s [--functional] [--engine NAME]
    python -m repro run --scenario examples/scenarios/dhrystone.json
    python -m repro experiments [PATTERN ...] [--engine NAME]
                                [--device-profile NAME]
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
import dataclasses
import json
import sys
from contextlib import ExitStack, nullcontext
from pathlib import Path
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
    """``--engine`` choices: the engine names, which argparse lists.

    Membership also admits a retired name, so that the engine lookup
    rejects it (exit 2, naming its replacement) instead of argparse.
    """

    def __contains__(self, name) -> bool:
        from repro.engine import RETIRED_ENGINES

        return tuple.__contains__(self, name) or name in RETIRED_ENGINES


def engine_choices() -> tuple:
    """Engine names for ``--engine`` (sorted, from :mod:`repro.engine`)."""
    from repro.engine import engine_names

    return _EngineChoices(engine_names())


def profile_choices() -> tuple:
    """Device-profile names for ``--device-profile`` (sorted)."""
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


class _Capture:
    """The files ``--trace``, ``--metrics-out`` and ``--out`` ask for.

    ``with _Capture(args, session) as capture:`` around a command's work
    creates the directory of every requested file, then installs only
    what the flags ask for: a tracer for ``--trace`` or ``--profile``, a
    metrics recorder for ``--metrics-out``.  Both are detached on exit
    (the session gets back the tracer the capture displaced) and their
    captures stay readable for :meth:`write`.
    """

    def __init__(self, args: argparse.Namespace, session):
        self.args = args
        self.session = session
        self.tracer = None
        self.recorder = None
        #: the recorded metrics collection (None without --metrics-out)
        self.metrics = None
        self._stack = ExitStack()

    def __enter__(self) -> "_Capture":
        args = self.args
        paths = [*(args.trace or ()), *(args.metrics_out or ())]
        if getattr(args, "out", None):
            paths.append(args.out)
        for path in paths:
            Path(path).parent.mkdir(parents=True, exist_ok=True)
        if args.trace or getattr(args, "profile", False):
            from repro.trace import tracing

            # unbounded: the profiler's attribution must be exact, and a
            # wrapped ring buffer would lose serve request lanes
            self.tracer = self._stack.enter_context(
                tracing(self.session, capacity=None))
        if args.metrics_out:
            from repro.metrics import MetricsRecorder

            # counter-growth based: nothing touches the simulator hot path
            self.recorder = self._stack.enter_context(
                MetricsRecorder(self.session))
        return self

    def __exit__(self, *exc) -> None:
        self._stack.__exit__(*exc)
        if self.recorder is not None:
            self.metrics = self.recorder.collection

    def write(self, document=None) -> None:
        """Write every requested file, each in the format its name picks.

        A ``.jsonl`` trace gets the JSONL event stream, any other trace
        Perfetto JSON; a ``.json`` metrics file gets the
        ``repro-metrics/1`` document, any other OpenMetrics text; ``--out``
        gets ``document`` as JSON.
        """
        args = self.args
        for path in args.trace or ():
            from repro.trace import write_chrome_trace, write_jsonl

            if Path(path).suffix == ".jsonl":
                count = write_jsonl(self.tracer, path)
            else:
                payload = write_chrome_trace(self.tracer, path)
                count = payload["otherData"]["n_events"]
            logger.info("trace: %d events -> %s", count, path)
        for path in args.metrics_out or ():
            from repro.metrics import write_json, write_openmetrics

            if Path(path).suffix == ".json":
                write_json(self.metrics, path)
            else:
                write_openmetrics(self.metrics, path)
            logger.info("metrics: %d series -> %s", len(self.metrics), path)
        if getattr(args, "out", None):
            with open(args.out, "w") as handle:
                json.dump(document, handle, indent=2, sort_keys=True)
                handle.write("\n")
            logger.info("%s -> %s", document["schema"], args.out)


def _add_capture_flags(parser: argparse.ArgumentParser, trace: str,
                       metrics: str) -> None:
    """``--trace`` and ``--metrics-out``; the file name picks the format."""
    parser.add_argument("--trace", action="append", metavar="PATH",
                        help=f"write a trace of {trace} to PATH "
                             "(repeatable): a .jsonl name gets the raw "
                             "event stream as JSONL, any other name "
                             "Chrome/Perfetto trace-event JSON (load in "
                             "ui.perfetto.dev)")
    parser.add_argument("--metrics-out", action="append", metavar="PATH",
                        help=f"write {metrics} to PATH (repeatable): a "
                             ".json name gets the stable-ordered "
                             "repro-metrics/1 JSON document, any other "
                             "name OpenMetrics text")


def _with_flags(scenario, args: argparse.Namespace):
    """``scenario`` with ``--engine`` and ``--device-profile`` folded over
    its fields: a flag beats the scenario file.  ``replace`` re-validates,
    so a typo'd name aborts with the registered list (exit 2)."""
    if args.engine:
        scenario = scenario.with_engine(name=args.engine)
    if args.device_profile:
        scenario = dataclasses.replace(scenario, profile=args.device_profile)
    return scenario


def _load_cli_scenario(args: argparse.Namespace):
    """Load ``--scenario FILE`` with CLI flags folded over file fields.

    Returns ``None`` when no ``--scenario`` was given.  File problems
    (missing path, malformed JSON, schema violations) raise
    :class:`~repro.errors.ConfigurationError`, which :func:`main` turns
    into a clean exit 2.
    """
    if not args.scenario:
        return None
    from repro.scenario import Scenario

    scenario = _with_flags(Scenario.from_file(args.scenario), args)
    if getattr(args, "functional", False):
        scenario = scenario.with_engine(prefer_functional=True)
    return scenario


def _print_profile(args: argparse.Namespace, capture: _Capture,
                   out) -> None:
    """With ``--profile``, print the captured trace's hot-spot report."""
    if args.profile:
        from repro.trace import build_report, render_report

        print(render_report(build_report(capture.tracer)), file=out)


def cmd_run(args: argparse.Namespace) -> int:
    from repro.engine import get_engine
    from repro.errors import ConfigurationError
    from repro.sim import SimSession, get_session, use_session

    if args.max_cycles < 0:
        raise ConfigurationError(
            f"--max-cycles: must be >= 0, got {args.max_cycles}")
    scenario = _load_cli_scenario(args)
    with ExitStack() as scope:
        if scenario is not None:
            # the scenario's session, for this command: its seed/engine/
            # profile apply and its hash labels the run's manifest
            session = scope.enter_context(
                use_session(SimSession.from_scenario(scenario)))
        else:
            # the flags fold over the live session's scenario for this
            # command; the session keeps its counters and cache
            session = get_session()
            config = session.config
            session.config = dataclasses.replace(
                config, scenario=_with_flags(config.scenario, args))
            scope.callback(setattr, session, "config", config)
        engine = get_engine(session.config.engine)

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

                with _Capture(args, session) as capture:
                    summary = run_scenario(scenario, engine=session.config.engine)
                capture.write()
                if args.stats_json:
                    _print_profile(args, capture, sys.stderr)
                    print(json.dumps(summary, indent=2, sort_keys=True))
                    return 0
                _, detail = scenario_signature(scenario)
                print(f"scenario: {scenario.name} ({detail}) "
                      f"engine={summary['engine']}")
                print(f"batch={summary['batch_size']} "
                      f"total_cycles={summary['total_cycles']} "
                      f"macs={summary['macs']}")
                _print_profile(args, capture, sys.stdout)
                return 0
            from repro.scenario.materialize import build_program

            program = build_program(scenario)
        else:
            program = assemble(_read_text(args.file), base=args.base)
        prefer_functional = args.functional or (
            scenario is not None and scenario.engine.prefer_functional)

        with _Capture(args, session) as capture:
            # the engine owns CPU construction and the step/cycle limit
            # semantics (fast engines count retired instructions, the
            # accurate pipeline counts cycles)
            cpu, result = engine.run_program(program, limit=args.max_cycles,
                                             prefer_functional=prefer_functional)
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

        capture.write()
        _print_profile(args, capture, out)

        if args.stats_json:
            # printed before the non-zero exit path, stop reason included, so
            # scripted callers always get one parseable document on stdout
            payload = {"stop_reason": result.stop_reason, "pc": result.pc,
                       "exit_code": exit_code, "counters": dict(session.stats)}
            print(json.dumps(payload, indent=2, sort_keys=True, default=str))
        return exit_code


def cmd_experiments(args: argparse.Namespace) -> int:
    from repro.core.events import Timeline
    from repro.experiments.runner import (
        render_json,
        render_markdown,
        run_selected,
        select,
    )
    from repro.sim import SimConfig, SimSession, use_session
    from repro.viz import render_timeline

    # fail fast: a bad REPRO_ENGINE or REPRO_PROFILE aborts here with the
    # registered list, before any experiment assembles programs or trains
    # models.  Parallel workers (-j) get this session's config from
    # run_selected; --no-cache disables its whole cache, trained models
    # included, as REPRO_NO_CACHE=1 does.  The flags' session lasts for
    # this command only.
    base = SimConfig.from_env()
    scenario = _load_cli_scenario(args)
    session = None
    if scenario is not None or args.cache_dir or args.engine \
            or args.device_profile or args.no_cache:
        session = SimSession(dataclasses.replace(
            base, cache_dir=args.cache_dir or base.cache_dir,
            cache_enabled=base.cache_enabled and not args.no_cache,
            scenario=scenario or _with_flags(base.scenario, args)))
    with nullcontext() if session is None else use_session(session):
        if args.patterns and not select(args.patterns):
            logger.error("no experiments match %r", " ".join(args.patterns))
            return 1
        results = run_selected(args.patterns or None, jobs=args.jobs,
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

    specs = chip_specs()
    print(f"NCPU reproduction — modelled chip specifications "
          f"({specs['technology_nm']} nm)")
    print(f"  nominal frequency  : {specs['frequency_mhz_at_1v']:.0f} MHz "
          f"at 1.0 V")
    print(f"  low-power point    : {specs['frequency_mhz_at_0v4']:.0f} MHz "
          f"at 0.4 V")
    print(f"  BNN power          : {specs['bnn_power_mw_at_1v']:.0f} mW "
          f"(1 V), {specs['bnn_power_mw_at_0v4']:.1f} mW (0.4 V)")
    print(f"  CPU power          : {specs['cpu_power_mw_at_1v']:.0f} mW "
          f"(1 V), {specs['cpu_power_mw_at_0v4']:.1f} mW (0.4 V)")
    print(f"  BNN efficiency     : {specs['bnn_tops_per_watt_at_1v']:.2f} "
          f"TOPS/W (1 V), {specs['bnn_tops_per_watt_at_0v4']:.2f} "
          f"TOPS/W (0.4 V peak)")
    print(f"  NCPU core area     : {specs['ncpu_core_area_mm2']:.3f} mm^2")
    print(f"  CPU+BNN baseline   : {specs['cpu_plus_bnn_area_mm2']:.3f} mm^2")
    print(f"  area saving        : {specs['area_saving_fraction']:.1%}")
    print(f"  accelerator array  : {specs['accelerator_physical_layers']} "
          f"layers x {specs['accelerator_neurons_per_layer']} neurons "
          f"({specs['accelerator_peak_macs_per_cycle']} MACs/cycle)")
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
        print(f"  {marker} {entry['name']:<16}: {entry['title']}")
        print(f"    {'':>16}  {entry['technology_nm']:g} nm, "
              f"{low:g}-{high:g} V, {entry['f_nominal_mhz']:g} MHz, "
              f"{entry['accel_ops_per_cycle']} MACs/cycle")
    return 0


def cmd_attribute(args: argparse.Namespace) -> int:
    from repro.obs import (
        attribute_chained,
        attribute_scenario,
        attribution_document,
        render_attribution,
    )
    from repro.scenario import Scenario
    from repro.sim import SimSession, use_session

    scenario = Scenario.from_file(args.scenario)
    # one --engine folds into the scenario, as on `run`; repeated, it
    # picks the engines of an A/B, each run names its own, and the
    # scenario keeps the file's engine
    if args.engine and len(args.engine) == 1:
        scenario = scenario.with_engine(name=args.engine[0])
    if args.device_profile:
        scenario = dataclasses.replace(scenario, profile=args.device_profile)
    engines = args.engine or [scenario.engine.name]
    runs = []
    with use_session(SimSession.from_scenario(scenario)) as session, \
            _Capture(args, session) as capture:
        for name in engines:
            runs.append(attribute_scenario(scenario, engine=name))
            if args.chained:
                runs.append(attribute_chained(scenario, engine=name))
    if capture.metrics is not None:
        for attribution in runs:
            capture.metrics.add_phase_attribution(attribution)
    document = attribution_document(runs, scenario)
    capture.write(document)
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
    from repro.serve import (
        add_serve_metrics,
        render_slo_report,
        serve_scenario,
        validate_slo_report,
    )
    from repro.sim import SimSession, use_session

    scenario = _serve_scenario_from_args(args)
    with use_session(SimSession.from_scenario(scenario)) as session, \
            _Capture(args, session) as capture:
        report, server = serve_scenario(scenario, session=session,
                                        with_server=True)
    validate_slo_report(report)
    if capture.metrics is not None:
        spec = scenario.serve
        tracer = capture.tracer
        add_serve_metrics(
            capture.metrics, server.recorder, wall_s=server.wall_s,
            labels={"engine": server.engine.name,
                    "arrival": spec.arrival},
            trace_dropped=tracer.dropped if tracer is not None else 0)
    capture.write(report)
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
    # instead of re-importing the tables per --engine/--device-profile flag
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
                     help="scenario JSON driving the run (engine, device "
                          "profile, seed, workload); explicit flags and the "
                          "positional file override scenario fields")
    run.add_argument("--base", type=_parse_base, default=0)
    run.add_argument("--functional", action="store_true",
                     help="use the functional ISS instead of the pipeline")
    run.add_argument("--engine", choices=engines,
                     help="execution engine: 'accurate' (default) keeps the "
                          "cycle-accurate pipeline / functional ISS, the "
                          "others swap in faster host-side backends with "
                          "identical architectural results; REPRO_ENGINE "
                          "sets the default")
    run.add_argument("--device-profile", choices=profiles, metavar="NAME",
                     help="device profile pricing the power models "
                          "(default: the scenario's profile, else "
                          "REPRO_PROFILE, else ncpu-65nm)")
    run.add_argument("--regs", action="store_true",
                     help="dump the register file after the run")
    run.add_argument("--stats-json", action="store_true",
                     help="print one JSON document (stop reason + session "
                          "counters) on stdout; summary moves to stderr")
    _add_capture_flags(run, trace="the run",
                       metrics="the run's metrics (session counter growth "
                               "+ wall time, manifest-labelled)")
    run.add_argument("--profile", action="store_true",
                     help="print hot-spot / stall-attribution / layer "
                          "profile (pipelined runs)")
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
                          "device profile, seed); --engine and "
                          "--device-profile override its fields")
    exp.add_argument("--engine", choices=engines,
                     help="execution engine for the session (the fast "
                          "engines swap in batched BNN kernels; results "
                          "are identical); REPRO_ENGINE sets the default")
    exp.add_argument("--device-profile", choices=profiles, metavar="NAME",
                     help="device profile pricing the power models "
                          "(default: the scenario's profile, else "
                          "REPRO_PROFILE, else ncpu-65nm); changes "
                          "physical results — paper anchors only hold on "
                          "the default")
    exp.set_defaults(func=cmd_experiments)

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
    _add_capture_flags(serve,
                       trace="per-request lifecycle lanes (serve.reqNN), "
                             "batch spans and queue-depth counters",
                       metrics="latency quantiles, per-phase quantiles, "
                               "admission counters and queue gauges")
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
                     help="engine to attribute, in place of the "
                          "scenario's; repeat for an A/B comparison "
                          "across engines, which leaves the scenario's "
                          "engine as the file wrote it (default: the "
                          "scenario's engine)")
    att.add_argument("--device-profile", choices=profiles, metavar="NAME",
                     help="device profile the attributed runs are priced "
                          "under (default: the scenario's profile)")
    att.add_argument("--chained", action="store_true",
                     help="also attribute a two-core chained end-to-end "
                          "inference (bnn scenarios with >= 2 layers)")
    att.add_argument("--json", action="store_true",
                     help="print the attribution document as JSON instead "
                          "of markdown tables")
    att.add_argument("--out", metavar="PATH",
                     help="also write the attribution JSON document to "
                          "PATH")
    _add_capture_flags(att, trace="the attributed runs (obs.* phase "
                                  "tracks)",
                       metrics="gauges of the attribution (per-phase "
                               "cycles, wall seconds, fractions)")
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
