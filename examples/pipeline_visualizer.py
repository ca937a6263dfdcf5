"""Watching the 5-stage pipeline work: diagrams, hazards, and ablations.

Prints classic pipeline diagrams (one row per cycle, one column per stage)
for straight-line code, a load-use hazard, a taken branch, and the same
dependent chain with the forwarding network ablated — the NeuroEX
forwarding paths of paper section IV.A made visible.

Run:  python examples/pipeline_visualizer.py
"""

from repro.cpu import PipelinedCPU
from repro.isa import assemble
from repro.trace import render_pipeline_diagram, tracing


def show(title, source, **kwargs):
    with tracing() as tracer:
        result = PipelinedCPU(assemble(source), **kwargs).run()
    print(f"== {title} "
          f"({result.stats.instructions} instr, {result.stats.cycles} cycles, "
          f"{result.stats.stalls} stalls, {result.stats.flushes} flush slots)")
    print(render_pipeline_diagram(tracer))
    print()


show("straight-line code fills the pipe", """
    li a0, 1
    li a1, 2
    li a2, 3
    ebreak
""")

show("load-use hazard: one interlock bubble", """
    li a1, 64
    sw a1, 0(a1)
    lw a2, 0(a1)
    addi a3, a2, 1
    ebreak
""")

show("taken branch: two squashed slots", """
    li a0, 1
    beq a0, a0, over
    li a1, 99
    li a2, 99
over:
    ebreak
""")

show("dependent chain WITH forwarding (section IV.A paths)", """
    li a0, 1
    addi a1, a0, 1
    addi a2, a1, 1
    ebreak
""")

show("the same chain with the forwarding network ablated", """
    li a0, 1
    addi a1, a0, 1
    addi a2, a1, 1
    ebreak
""", forwarding=False)
