"""The host speed that closed-loop and sweep times are scaled to.

On a shared host the CPU time of one and the same call changes with what
other tenants run on the same physical core.  ``host_speed()`` times a
fixed pure-Python loop on the CPU clock just before the work; the work's
CPU time multiplied by that speed is its time at the reference speed, at
which the loop takes ``REFERENCE_S``.
"""

import time

#: iterations of the reference loop
LOOPS = 100_000
#: CPU seconds the reference loop takes at the reference speed
REFERENCE_S = 0.005


def host_speed() -> float:
    """The host's speed right now relative to the reference speed."""
    start = time.process_time()
    total = 0
    for value in range(LOOPS):
        total += value
    return REFERENCE_S / (time.process_time() - start)
