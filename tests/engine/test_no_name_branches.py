"""Guard: no engine-name branches outside the config layer.

The whole point of the engine lookup is that dispatch sites resolve an
engine *object* and call through it.  A literal comparison like
``engine == "fast"`` reintroduces name-keyed branching that silently
skips new backends, so this test greps ``src/repro`` for any equality
comparison against an engine name.  Lookups by literal key
(``get_engine("fast")``) are fine — only *comparisons* are banned.
Every module is scanned, ``repro/engine.py`` and the config layer
(``repro/sim/``) included: they validate names by lookup, not by
comparison.
"""

import re
from pathlib import Path

from repro.engine import engine_names

SRC_ROOT = Path(__file__).resolve().parents[2] / "src" / "repro"


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
            for lineno, line in enumerate(path.read_text().splitlines(), 1):
                for hit in _engine_name_comparisons(line):
                    offenders.append(f"{relative}:{lineno}: {hit}")
        assert not offenders, (
            "engine-name comparisons (resolve an engine object instead):\n"
            + "\n".join(offenders))

    def test_detector_catches_both_orders(self):
        assert _engine_name_comparisons("if engine == 'fast':")
        assert _engine_name_comparisons('if "accurate" != engine:')
        assert _engine_name_comparisons('engine=="fast"')

    def test_detector_catches_membership_tests(self):
        assert _engine_name_comparisons('if engine in ("fast", "accurate"):')
        assert _engine_name_comparisons("if engine in ['accurate']:")
        assert _engine_name_comparisons('name in {"accurate", "fast"}')

    def test_detector_allows_registry_lookups(self):
        assert not _engine_name_comparisons('get_engine("fast")')
        assert not _engine_name_comparisons("resolve_engine('accurate')")
        assert not _engine_name_comparisons('engine: str = "accurate"')
        assert not _engine_name_comparisons('choices=sorted(engine_names())')
