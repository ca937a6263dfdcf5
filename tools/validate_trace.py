#!/usr/bin/env python3
"""Validate Chrome/Perfetto trace files produced by the repro toolkit.

Usage::

    python tools/validate_trace.py trace.json [more.trace.json ...]

Exit codes (the worst across all files wins):

* 0 — every file passes the exporter schema check
* 1 — at least one file parses as JSON but violates the trace schema
* 2 — at least one file is unreadable (missing, unreadable, not JSON),
  or no files were given

CI runs this against the traces produced by the smoke job.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.trace import validate_chrome_trace  # noqa: E402

EXIT_OK = 0
EXIT_SCHEMA = 1
EXIT_UNREADABLE = 2


def validate_one(name: str) -> int:
    """Validate one file; prints a verdict line, returns its exit code."""
    try:
        with open(name) as handle:
            payload = json.load(handle)
    except (OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
        print(f"{name}: UNREADABLE — {exc}")
        return EXIT_UNREADABLE
    try:
        summary = validate_chrome_trace(payload)
    except ValueError as exc:
        print(f"{name}: INVALID — {exc}")
        return EXIT_SCHEMA
    processes = "; ".join(f"{process}: [{', '.join(tracks)}]"
                          for process, tracks in summary["processes"].items())
    print(f"{name}: ok — {summary['events']} events; "
          f"{processes or ', '.join(summary['tracks'])}")
    return EXIT_OK


def main(argv: list) -> int:
    if not argv:
        print(__doc__.strip(), file=sys.stderr)
        return EXIT_UNREADABLE
    return max(validate_one(name) for name in argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
