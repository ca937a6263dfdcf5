#!/usr/bin/env python3
"""Documentation lint: links, CLI examples, probe/engine/scenario tables.

Nine checks, each cheap enough for every CI run:

1. **Relative links** — every ``[text](target)`` in a tracked markdown file
   whose target is not an external URL or a pure anchor must point at an
   existing file or directory (anchors and query strings are stripped).
2. **CLI examples** — every ``repro ...`` / ``python -m repro ...`` command
   inside a fenced ```bash/```console block of README.md and docs/*.md is
   parsed against the *real* argparse tree (``repro.cli.build_parser``), so
   documented flags can never drift from the implementation.
3. **Probe table** — the "### Tracer recording methods" table in
   docs/ARCHITECTURE.md must list exactly the public ``repro.trace.Tracer``
   methods that record an event (the probes the simulators call), and
   every source file its "called by" column names must call that method,
   so adding, renaming or retiring a recording method or a call site
   forces the table to follow (tier-1 runs this check through
   tests/tools/test_check_docs.py).
4. **Engine table** — the "### Engine registry" table in
   docs/ARCHITECTURE.md must list exactly the engines of
   ``repro.engine.engine_table()`` with their live ``timing_accurate``
   flag, so adding an engine (or changing its flag) forces the docs to
   follow.
5. **Scenario field tables** — every field table in docs/SCENARIOS.md
   must list exactly the fields of the matching dataclass in
   ``repro.scenario.schema``, so adding or removing a scenario
   dimension forces the schema reference to follow.
6. **Phase vocabulary table** — the "### Phase vocabulary" table in
   docs/OBSERVABILITY.md must list exactly ``repro.obs.PHASES`` in
   order, so renaming or adding an attribution phase forces the
   observability reference to follow.
7. **Serve metric table** — the "## Serve metric families" table in
   docs/SERVING.md must list exactly ``repro.serve.SERVE_METRIC_HELP``.
8. **Kernel handbook** — the constants table in docs/KERNELS.md must
   match the live source constants (each ``module.CONSTANT`` row is
   imported and compared), and its engine decision table must cover
   exactly the engines in ``repro.engine``.
9. **Device profile table** — the "## Profile registry" table in
   docs/DEVICES.md must list exactly the profiles of
   ``repro.power.profile_table()`` with their live technology/voltage/
   frequency/geometry values, so adding a device (or recalibrating
   one) forces the device reference to follow.

Exit status: 0 when everything passes, 1 with a per-finding report
otherwise.  Run from anywhere: paths resolve relative to the repo root.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import io
import re
import shlex
import sys
from pathlib import Path
from typing import Dict, List, Set, Tuple

REPO_ROOT = Path(__file__).resolve().parents[1]
SRC = REPO_ROOT / "src"
ARCHITECTURE = REPO_ROOT / "docs" / "ARCHITECTURE.md"

#: markdown files whose fenced shell blocks must contain valid repro CLI
#: invocations (the link check covers every markdown file)
CLI_CHECKED = ("README.md", "docs")

#: directories never scanned for markdown
SKIP_DIRS = {".git", ".claude", "__pycache__", ".hypothesis",
             ".pytest_cache", "node_modules"}

#: fence info strings whose blocks hold shell commands
SHELL_FENCES = {"bash", "console", "sh", "shell"}

#: tokens that end one shell command inside a line
SHELL_OPERATORS = {"|", "||", "&&", ";", ">", ">>", "<", "2>", "2>>", "&"}

_LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
_FENCE_RE = re.compile(r"^```\s*(\S*)\s*$")


def markdown_files() -> List[Path]:
    files = []
    for path in sorted(REPO_ROOT.rglob("*.md")):
        if not SKIP_DIRS.intersection(part for part in path.parts):
            files.append(path)
    return files


def table_rows(text: str, anchor: str,
               row_re: "re.Pattern[str]") -> List["re.Match[str]"]:
    """The rows ``row_re`` matches in the table after ``anchor`` in
    ``text``; the scan stops at the first non-table line once a row has
    matched.  Every docs-table reader below parses its table with it."""
    rows: List["re.Match[str]"] = []
    if anchor not in text:
        return rows
    for line in text.split(anchor, 1)[1].splitlines():
        match = row_re.match(line.strip())
        if match:
            rows.append(match)
        elif rows and not line.strip().startswith("|"):
            break
    return rows


# -- check 1: relative links ---------------------------------------------
def check_links(files: List[Path]) -> List[str]:
    problems = []
    for path in files:
        for number, line in enumerate(path.read_text().splitlines(), 1):
            for target in _LINK_RE.findall(line):
                if re.match(r"^[a-z][a-z0-9+.-]*:", target):  # URL scheme
                    continue
                if target.startswith("#"):  # in-page anchor
                    continue
                plain = target.split("#", 1)[0].split("?", 1)[0]
                if not plain:
                    continue
                resolved = (path.parent / plain).resolve()
                if not resolved.exists():
                    problems.append(
                        f"{path.relative_to(REPO_ROOT)}:{number}: broken "
                        f"link -> {target}")
    return problems


# -- check 2: fenced repro commands parse --------------------------------
def shell_blocks(text: str) -> List[Tuple[int, List[str]]]:
    """``(first line number, lines)`` of each bash/console fenced block."""
    blocks = []
    lines = text.splitlines()
    index = 0
    while index < len(lines):
        match = _FENCE_RE.match(lines[index])
        if match and match.group(1).lower() in SHELL_FENCES:
            start = index + 1
            body = []
            index += 1
            while index < len(lines) and not lines[index].startswith("```"):
                body.append(lines[index])
                index += 1
            blocks.append((start + 1, body))
        index += 1
    return blocks


def join_continuations(body: List[str]) -> List[Tuple[int, str]]:
    """Merge backslash-continued lines; keep the first line's number."""
    merged: List[Tuple[int, str]] = []
    pending: str = ""
    pending_line = 0
    for offset, raw in enumerate(body):
        line = raw.rstrip()
        if not pending:
            pending_line = offset
        pending = (pending + " " + line.lstrip()) if pending else line
        if pending.endswith("\\"):
            pending = pending[:-1].rstrip()
            continue
        merged.append((pending_line, pending))
        pending = ""
    if pending:
        merged.append((pending_line, pending))
    return merged


def extract_repro_argv(command: str) -> List[List[str]]:
    """The argv lists of every repro CLI invocation inside one shell line."""
    command = command.strip()
    if command.startswith("$"):
        command = command[1:].strip()
    if not command or command.startswith("#"):
        return []
    try:
        tokens = shlex.split(command, comments=True, posix=True)
    except ValueError:
        return []
    invocations = []
    index = 0
    while index < len(tokens):
        token = tokens[index]
        is_cli = token == "repro"
        if token == "repro" and index >= 2 and tokens[index - 1] == "-m":
            is_cli = True  # python -m repro
        elif token == "repro" and index > 0 \
                and tokens[index - 1] not in SHELL_OPERATORS \
                and not re.match(r"^\w+=", tokens[index - 1]) \
                and index != 0:
            # "repro" as a plain word mid-sentence (e.g. a path argument)
            is_cli = tokens[index - 1] in ("-m",)
        if is_cli:
            argv = []
            index += 1
            while index < len(tokens) and tokens[index] not in SHELL_OPERATORS:
                argv.append(tokens[index])
                index += 1
            invocations.append(argv)
        else:
            index += 1
    return invocations


def check_cli_examples(files: List[Path]) -> List[str]:
    sys.path.insert(0, str(SRC))
    try:
        from repro.cli import build_parser
    finally:
        sys.path.pop(0)
    problems = []
    for path in files:
        relative = path.relative_to(REPO_ROOT)
        if not (path.name == "README.md" and path.parent == REPO_ROOT
                or relative.parts[0] in CLI_CHECKED):
            continue
        for start, body in shell_blocks(path.read_text()):
            for offset, command in join_continuations(body):
                for argv in extract_repro_argv(command):
                    parser = build_parser()
                    sink = io.StringIO()
                    try:
                        with contextlib.redirect_stderr(sink):
                            parser.parse_args(argv)
                    except SystemExit as exc:
                        if exc.code not in (0, None):
                            where = f"{relative}:{start + offset}"
                            reason = sink.getvalue().strip().splitlines()
                            problems.append(
                                f"{where}: `repro {' '.join(argv)}` does "
                                f"not parse ({reason[-1] if reason else exc})")
    return problems


# -- check 3: tracer recording-method (probe) table ----------------------
TRACER_SOURCE = SRC / "repro" / "trace" / "tracer.py"

RECORDER_TABLE_ANCHOR = "### Tracer recording methods"

_RECORDER_ROW_RE = re.compile(r"^\|\s*`([a-z_]+)`\s*\|([^|]*)\|")


def recording_methods() -> Set[str]:
    """Public ``Tracer`` methods that record an event: they call
    ``self._append``, directly or through another recording method."""
    tree = ast.parse(TRACER_SOURCE.read_text(), filename=str(TRACER_SOURCE))
    tracer = next(node for node in tree.body
                  if isinstance(node, ast.ClassDef) and node.name == "Tracer")
    callees = {
        method.name: {call.func.attr for call in ast.walk(method)
                      if isinstance(call, ast.Call)
                      and isinstance(call.func, ast.Attribute)
                      and isinstance(call.func.value, ast.Name)
                      and call.func.value.id == "self"}
        for method in tracer.body if isinstance(method, ast.FunctionDef)}
    recording = {"_append"}
    while True:
        grown = recording | {name for name, called in callees.items()
                             if called & recording}
        if grown == recording:
            break
        recording = grown
    return {name for name in recording if not name.startswith("_")}


def documented_recorders(text: str) -> Dict[str, List[str]]:
    """``{method: [caller paths under src/repro]}`` from the docs table."""
    return {match.group(1): re.findall(r"`([\w/]+\.py)`", match.group(2))
            for match in table_rows(text, RECORDER_TABLE_ANCHOR,
                                    _RECORDER_ROW_RE)}


def check_probe_table() -> List[str]:
    documented = documented_recorders(ARCHITECTURE.read_text())
    if not documented:
        return [f"{ARCHITECTURE.name}: recording-method table "
                f"('{RECORDER_TABLE_ANCHOR}') not found"]
    problems = []
    live = recording_methods()
    for name in sorted(live - set(documented)):
        problems.append(
            f"Tracer.{name} records events but is missing from the "
            "docs/ARCHITECTURE.md recording-method table")
    for name in sorted(set(documented) - live):
        problems.append(
            f"`{name}` documented in docs/ARCHITECTURE.md but Tracer has "
            "no such recording method")
    for name, callers in sorted(documented.items()):
        for caller in callers:
            path = SRC / "repro" / caller
            if not path.is_file() or f".{name}(" not in path.read_text():
                problems.append(
                    f"docs/ARCHITECTURE.md says src/repro/{caller} calls "
                    f"Tracer.{name}, but it does not")
    return problems


# -- check 4: engine table ----------------------------------------------
ENGINE_TABLE_ANCHOR = "### Engine registry"

#: capability columns of the docs table, in order
ENGINE_FLAG_COLUMNS = ("timing_accurate",)

_ENGINE_ROW_RE = re.compile(r"^\|\s*`([a-z0-9_-]+)`\s*\|(.+)\|\s*$")


def documented_engine_table(text: str) -> Dict[str, Dict[str, bool]]:
    """``{engine name: {flag: bool}}`` parsed from the docs table."""
    return {match.group(1): {
        flag: cell.strip() == "yes"
        for flag, cell in zip(ENGINE_FLAG_COLUMNS, match.group(2).split("|"))}
        for match in table_rows(text, ENGINE_TABLE_ANCHOR, _ENGINE_ROW_RE)}


def check_engine_table() -> List[str]:
    sys.path.insert(0, str(SRC))
    try:
        from repro.engine import engine_table
    finally:
        sys.path.pop(0)
    documented = documented_engine_table(ARCHITECTURE.read_text())
    if not documented:
        return [f"{ARCHITECTURE.name}: engine registry table "
                f"('{ENGINE_TABLE_ANCHOR}') not found"]
    problems = []
    registered = {entry["name"]: entry["capabilities"]
                  for entry in engine_table()}
    for name in sorted(set(registered) - set(documented)):
        problems.append(
            f"engine `{name}` is registered but missing from the "
            "docs/ARCHITECTURE.md engine registry table")
    for name in sorted(set(documented) - set(registered)):
        problems.append(
            f"engine `{name}` documented in docs/ARCHITECTURE.md but not "
            "registered in repro.engine")
    for name in sorted(set(registered) & set(documented)):
        for flag in ENGINE_FLAG_COLUMNS:
            live, documented_value = registered[name][flag], \
                documented[name].get(flag)
            if documented_value != live:
                problems.append(
                    f"engine `{name}`: docs table says {flag}="
                    f"{'yes' if documented_value else 'no'} but "
                    f"engine_table() says {'yes' if live else 'no'}")
    return problems


# -- check 5: scenario field tables --------------------------------------
SCENARIOS_MD = REPO_ROOT / "docs" / "SCENARIOS.md"

#: (docs/SCENARIOS.md table anchor, repro.scenario.schema class name)
SCENARIO_TABLES = (
    ("### Top-level `Scenario` fields", "Scenario"),
    ("### `workload` fields (`WorkloadSpec`)", "WorkloadSpec"),
    ("### `engine` fields (`EngineSpec`)", "EngineSpec"),
    ("### `serve` fields (`ServeSpec`)", "ServeSpec"),
)

_FIELD_ROW_RE = re.compile(r"^\|\s*`([a-z_]+)`\s*\|")


def documented_scenario_fields(text: str, anchor: str) -> Set[str]:
    """Field names listed in the table right after ``anchor``."""
    return {match.group(1)
            for match in table_rows(text, anchor, _FIELD_ROW_RE)}


def check_scenario_tables() -> List[str]:
    import dataclasses

    sys.path.insert(0, str(SRC))
    try:
        from repro.scenario import schema
    finally:
        sys.path.pop(0)
    if not SCENARIOS_MD.exists():
        return ["docs/SCENARIOS.md: missing (scenario schema reference)"]
    text = SCENARIOS_MD.read_text()
    problems = []
    for anchor, class_name in SCENARIO_TABLES:
        documented = documented_scenario_fields(text, anchor)
        if not documented:
            problems.append(
                f"docs/SCENARIOS.md: field table '{anchor}' not found")
            continue
        live = {field.name
                for field in dataclasses.fields(getattr(schema, class_name))}
        for name in sorted(live - documented):
            problems.append(
                f"scenario field `{class_name}.{name}` exists in the "
                f"schema but is missing from the docs/SCENARIOS.md table "
                f"'{anchor}'")
        for name in sorted(documented - live):
            problems.append(
                f"scenario field `{name}` documented under '{anchor}' in "
                f"docs/SCENARIOS.md but {class_name} has no such field")
    return problems


# -- check 6: observability phase table ----------------------------------
OBSERVABILITY_MD = REPO_ROOT / "docs" / "OBSERVABILITY.md"

PHASE_TABLE_ANCHOR = "### Phase vocabulary"

_PHASE_ROW_RE = re.compile(r"^\|\s*`([a-z_]+)`\s*\|")


def documented_phases(text: str) -> List[str]:
    """Phase names (in table order) listed after the phase anchor."""
    return [match.group(1)
            for match in table_rows(text, PHASE_TABLE_ANCHOR, _PHASE_ROW_RE)]


def check_phase_table() -> List[str]:
    sys.path.insert(0, str(SRC))
    try:
        from repro.obs import PHASES
    finally:
        sys.path.pop(0)
    if not OBSERVABILITY_MD.exists():
        return ["docs/OBSERVABILITY.md: missing (phase attribution "
                "reference)"]
    documented = documented_phases(OBSERVABILITY_MD.read_text())
    if not documented:
        return [f"docs/OBSERVABILITY.md: phase table "
                f"('{PHASE_TABLE_ANCHOR}') not found"]
    problems = []
    for name in [phase for phase in PHASES if phase not in documented]:
        problems.append(
            f"phase `{name}` is in repro.obs.PHASES but missing from the "
            "docs/OBSERVABILITY.md phase vocabulary table")
    for name in [phase for phase in documented if phase not in PHASES]:
        problems.append(
            f"phase `{name}` documented in docs/OBSERVABILITY.md but "
            "repro.obs.PHASES has no such phase")
    if not problems and documented != list(PHASES):
        problems.append(
            "docs/OBSERVABILITY.md phase table order differs from "
            f"repro.obs.PHASES ({documented} vs {list(PHASES)})")
    return problems


# -- check 7: serve metric table -----------------------------------------
SERVING_MD = REPO_ROOT / "docs" / "SERVING.md"

SERVE_METRIC_TABLE_ANCHOR = "## Serve metric families"

_METRIC_ROW_RE = re.compile(r"^\|\s*`([a-z0-9_]+)`\s*\|")


def documented_serve_metrics(text: str) -> Set[str]:
    """Metric family names listed after the serve metric anchor."""
    return {match.group(1) for match in table_rows(
        text, SERVE_METRIC_TABLE_ANCHOR, _METRIC_ROW_RE)}


def check_serve_metric_table() -> List[str]:
    sys.path.insert(0, str(SRC))
    try:
        from repro.serve.slo import SERVE_METRIC_HELP
    finally:
        sys.path.pop(0)
    if not SERVING_MD.exists():
        return ["docs/SERVING.md: missing (serve telemetry reference)"]
    documented = documented_serve_metrics(SERVING_MD.read_text())
    if not documented:
        return [f"docs/SERVING.md: serve metric table "
                f"('{SERVE_METRIC_TABLE_ANCHOR}') not found"]
    problems = []
    for name in sorted(set(SERVE_METRIC_HELP) - documented):
        problems.append(
            f"serve metric `{name}` is in repro.serve.SERVE_METRIC_HELP "
            "but missing from the docs/SERVING.md metric table")
    for name in sorted(documented - set(SERVE_METRIC_HELP)):
        problems.append(
            f"serve metric `{name}` documented in docs/SERVING.md but "
            "repro.serve.SERVE_METRIC_HELP has no such family")
    return problems


# -- check 8: kernel handbook --------------------------------------------
KERNELS_MD = REPO_ROOT / "docs" / "KERNELS.md"

KERNEL_CONSTANTS_ANCHOR = "## Kernel layout constants"
KERNEL_DECISION_ANCHOR = "## Engine decision table"

_CONSTANT_ROW_RE = re.compile(
    r"^\|\s*`([a-z_][\w.]*)\.([A-Z][A-Z0-9_]*)`\s*\|\s*(\d+)\s*\|")
_DECISION_ROW_RE = re.compile(r"^\|\s*`(?!engine`)([a-z0-9_-]+)`\s*\|")


def documented_kernel_constants(text: str) -> List[Tuple[str, str, int]]:
    """``(module, constant, value)`` rows after the constants anchor."""
    return [(match.group(1), match.group(2), int(match.group(3)))
            for match in table_rows(text, KERNEL_CONSTANTS_ANCHOR,
                                    _CONSTANT_ROW_RE)]


def documented_decision_engines(text: str) -> Set[str]:
    """Engine names listed in the decision table."""
    return {match.group(1) for match in table_rows(
        text, KERNEL_DECISION_ANCHOR, _DECISION_ROW_RE)}


def check_kernel_handbook() -> List[str]:
    import importlib

    sys.path.insert(0, str(SRC))
    try:
        from repro.engine import engine_names
    finally:
        sys.path.pop(0)
    if not KERNELS_MD.exists():
        return ["docs/KERNELS.md: missing (kernel handbook)"]
    text = KERNELS_MD.read_text()
    problems = []

    rows = documented_kernel_constants(text)
    if not rows:
        problems.append(f"docs/KERNELS.md: constants table "
                        f"('{KERNEL_CONSTANTS_ANCHOR}') not found")
    sys.path.insert(0, str(SRC))
    try:
        for module_name, constant, documented_value in rows:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                problems.append(
                    f"docs/KERNELS.md: constants table names module "
                    f"`{module_name}` which does not import")
                continue
            live = getattr(module, constant, None)
            if live is None:
                problems.append(
                    f"docs/KERNELS.md: `{module_name}.{constant}` is in "
                    "the constants table but the module has no such "
                    "constant")
            elif int(live) != documented_value:
                problems.append(
                    f"kernel constant `{module_name}.{constant}`: "
                    f"docs/KERNELS.md says {documented_value} but the "
                    f"source says {int(live)}")
    finally:
        sys.path.pop(0)

    documented = documented_decision_engines(text)
    if not documented:
        problems.append(f"docs/KERNELS.md: decision table "
                        f"('{KERNEL_DECISION_ANCHOR}') not found")
        return problems
    registered = set(engine_names())
    for name in sorted(registered - documented):
        problems.append(
            f"engine `{name}` is registered but missing from the "
            "docs/KERNELS.md engine decision table")
    for name in sorted(documented - registered):
        problems.append(
            f"engine `{name}` in the docs/KERNELS.md decision table but "
            "not registered in repro.engine")
    return problems


# -- check 9: device profile registry table ------------------------------
DEVICES_MD = REPO_ROOT / "docs" / "DEVICES.md"

PROFILE_TABLE_ANCHOR = "## Profile registry"

_PROFILE_ROW_RE = re.compile(
    r"^\|\s*`([a-z0-9_-]+)`\s*\|\s*(\d+)\s*\|"          # name | nm |
    r"\s*([0-9.]+)\s*[-–]\s*([0-9.]+)\s*\|"        # vdd lo–hi |
    r"\s*([0-9.]+)\s*\|\s*(\d+)\s*\|")                   # f_nom | MACs |


def documented_profile_table(text: str) -> Dict[str, Dict[str, object]]:
    """``{profile name: row values}`` parsed from the docs table."""
    return {match.group(1): {
        "technology_nm": int(match.group(2)),
        "vdd_range_v": [float(match.group(3)), float(match.group(4))],
        "f_nominal_mhz": float(match.group(5)),
        "accel_ops_per_cycle": int(match.group(6)),
    } for match in table_rows(text, PROFILE_TABLE_ANCHOR, _PROFILE_ROW_RE)}


def check_profile_table() -> List[str]:
    sys.path.insert(0, str(SRC))
    try:
        from repro.power import profile_table
    finally:
        sys.path.pop(0)
    if not DEVICES_MD.exists():
        return ["docs/DEVICES.md: missing (device profile reference)"]
    documented = documented_profile_table(DEVICES_MD.read_text())
    if not documented:
        return [f"docs/DEVICES.md: profile registry table "
                f"('{PROFILE_TABLE_ANCHOR}') not found"]
    problems = []
    registered = {entry["name"]: entry for entry in profile_table()}
    for name in sorted(set(registered) - set(documented)):
        problems.append(
            f"device profile `{name}` is registered but missing from the "
            "docs/DEVICES.md profile registry table")
    for name in sorted(set(documented) - set(registered)):
        problems.append(
            f"device profile `{name}` documented in docs/DEVICES.md but "
            "not registered in repro.power")
    for name in sorted(set(registered) & set(documented)):
        live, docs = registered[name], documented[name]
        for key in ("technology_nm", "vdd_range_v", "f_nominal_mhz",
                    "accel_ops_per_cycle"):
            if docs[key] != live[key]:
                problems.append(
                    f"device profile `{name}`: docs table says "
                    f"{key}={docs[key]} but the registry says {live[key]}")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="check_docs",
        description="lint markdown links, CLI examples, the probe table, "
                    "the engine registry table, the scenario field "
                    "tables, and the device profile table")
    parser.add_argument("--quiet", action="store_true",
                        help="print only failures")
    args = parser.parse_args(argv)

    files = markdown_files()
    problems = check_links(files)
    problems += check_cli_examples(files)
    problems += check_probe_table()
    problems += check_engine_table()
    problems += check_scenario_tables()
    problems += check_phase_table()
    problems += check_serve_metric_table()
    problems += check_kernel_handbook()
    problems += check_profile_table()
    if problems:
        for problem in problems:
            print(f"FAIL {problem}")
        print(f"{len(problems)} documentation problem(s)")
        return 1
    if not args.quiet:
        print(f"docs ok: {len(files)} markdown files, links + CLI examples "
              "+ probe table + engine table + scenario tables + phase "
              "table + serve metric table + kernel handbook + device "
              "profile table all consistent")
    return 0


if __name__ == "__main__":
    sys.exit(main())
