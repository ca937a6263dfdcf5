"""ASCII rendering of SoC timelines (no plotting deps).

The paper's figures are regenerated as data by :mod:`repro.experiments`;
:func:`render_timeline` draws an experiment's timeline as Gantt-style core
activity lanes in a terminal (Figs 13/16, ``repro experiments --draw``).
"""

from __future__ import annotations

from repro.core.events import Timeline
from repro.errors import ConfigurationError

#: lane glyph per segment kind
KIND_GLYPHS = {"cpu": "C", "bnn": "B", "idle": ".", "dma": "d", "switch": "s"}


def render_timeline(timeline: Timeline, width: int = 64) -> str:
    """Draw one character column per time bucket, one lane per core."""
    if width < 8:
        raise ConfigurationError("timeline width must be at least 8")
    end = timeline.end
    if end == 0:
        return "(empty timeline)"
    names = timeline.core_names()
    label_width = max(len(name) for name in names) + 1
    lines = []
    for name in names:
        lane = ["."] * width
        for segment in timeline.core_segments(name):
            start = int(segment.start / end * width)
            stop = max(start + 1, int(segment.end / end * width))
            glyph = KIND_GLYPHS.get(segment.kind, "?")
            for column in range(start, min(stop, width)):
                lane[column] = glyph
        lines.append(f"{name.ljust(label_width)}|{''.join(lane)}|")
    legend = "  ".join(f"{glyph}={kind}" for kind, glyph in KIND_GLYPHS.items())
    lines.append(f"{' ' * label_width} 0 .. {end} cycles   {legend}")
    return "\n".join(lines)
