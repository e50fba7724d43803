"""Wall time, corrected for how fast the host runs Python right now.

On a shared 2-vCPU sandbox the same pure-Python work takes anywhere
from 1x to 2x its quiet-host time, in phases that last from a fraction
of a second to tens of seconds, with CPU time tracking wall time (the
process is on a CPU, the CPU is just slower: neighbours load the
shared caches and sibling threads).  Medians within one run do not
remove phases that last the whole run, so the figures of two runs a
minute apart disagree by more than any bound worth setting.

:class:`RefClock` measures a fixed reference loop right before each
slice of timed work (every few thousand kernel events) and charges the
slice ``wall * REF_LOOP_S / loop_time``: the wall time the slice would
have taken at the speed the loop runs on a quiet host.  The loop is the
benchmark's own code, so the correction does not depend on the program
under test; both sides of a comparison are measured the same way.  Raw
wall time is kept alongside and reported in the human-readable lines.
"""

from __future__ import annotations

from time import perf_counter

__all__ = ["RefClock", "REF_LOOP_S", "reference_loop"]

#: the reference loop's time on a quiet 2-vCPU sandbox host (Python
#: 3.11); it only sets the scale of the corrected seconds
REF_LOOP_S = 1.9e-3


def reference_loop() -> int:
    """Interpreter-bound work of a fixed size: dict stores, integer
    arithmetic and loop overhead, about 2 ms on a quiet host."""
    table: dict = {}
    acc = 0
    for i in range(20000):
        table[i & 255] = acc
        acc += i % 7
    return acc


class RefClock:
    """Accumulates raw and speed-corrected wall time over marked spans.

    ``start()`` opens a timed stretch, ``tick()`` closes the current
    slice and calibrates for the next one, ``stop()`` closes the stretch
    and returns ``(wall_s, corrected_s)``.  Calibration time is never
    charged to the work.
    """

    def __init__(self) -> None:
        self.wall = 0.0
        self.corrected = 0.0
        self._scale = 1.0
        self._mark = 0.0

    def _calibrate(self) -> None:
        t0 = perf_counter()
        reference_loop()
        self._scale = REF_LOOP_S / (perf_counter() - t0)
        self._mark = perf_counter()

    def _charge(self) -> None:
        dt = perf_counter() - self._mark
        self.wall += dt
        self.corrected += dt * self._scale

    def start(self) -> None:
        self.wall = self.corrected = 0.0
        self._calibrate()

    def tick(self) -> None:
        self._charge()
        self._calibrate()

    def stop(self) -> tuple:
        self._charge()
        return self.wall, self.corrected
