"""Guard: no engine-name branches outside the registry layer.

The whole point of the registry seam is that dispatch sites resolve an
engine *object* and call through it.  A literal comparison like
``engine == "fast"`` reintroduces name-keyed branching that silently
skips new backends, so this test greps ``src/repro`` for any equality
comparison against a registered engine name.  Registry lookups by
literal key (``get_engine("fast")``) are fine — only *comparisons* are
banned — and the registry/config layers themselves
(``repro/engine/``, ``repro/sim/``) are exempt because resolving names
is their job.
"""

import re
from pathlib import Path

from repro.engine import engine_names

SRC_ROOT = Path(__file__).resolve().parents[2] / "src" / "repro"

#: directories allowed to handle engine names as data
EXEMPT_DIRS = ("engine", "sim")


def _engine_name_comparisons(text: str) -> list:
    names = "|".join(re.escape(name) for name in engine_names())
    quoted = rf"[\"']({names})[\"']"
    # equality comparisons against a name, either operand order, plus
    # membership tests over literal name collections: both hard-code the
    # engine roster and silently skip backends registered later.
    pattern = re.compile(
        rf"(==|!=)\s*{quoted}"
        rf"|{quoted}\s*(==|!=)"
        rf"|\bin\s*[\[\(\{{]\s*{quoted}"
        rf"|\bin\s*\(?\s*{quoted}\s*,")
    return [match.group(0) for match in pattern.finditer(text)]


class TestNoEngineNameBranches:
    def test_src_tree_is_clean(self):
        offenders = []
        for path in sorted(SRC_ROOT.rglob("*.py")):
            relative = path.relative_to(SRC_ROOT)
            if relative.parts[0] in EXEMPT_DIRS:
                continue
            for lineno, line in enumerate(path.read_text().splitlines(), 1):
                for hit in _engine_name_comparisons(line):
                    offenders.append(f"{relative}:{lineno}: {hit}")
        assert not offenders, (
            "engine-name comparisons outside the registry layer "
            "(resolve an engine object instead):\n" + "\n".join(offenders))

    def test_detector_catches_both_orders(self):
        assert _engine_name_comparisons("if engine == 'fast':")
        assert _engine_name_comparisons('if "accurate" != engine:')
        assert _engine_name_comparisons('engine=="parallel"')

    def test_detector_catches_membership_tests(self):
        assert _engine_name_comparisons('if engine in ("fast", "parallel"):')
        assert _engine_name_comparisons("if engine in ['accurate']:")
        assert _engine_name_comparisons('name in {"parallel", "fast"}')

    def test_detector_allows_registry_lookups(self):
        assert not _engine_name_comparisons('get_engine("fast")')
        assert not _engine_name_comparisons("resolve_engine('parallel')")
        assert not _engine_name_comparisons('engine: str = "accurate"')
        assert not _engine_name_comparisons('choices=sorted(engine_names())')
