"""Machine-speed reference for the end-to-end time metrics.

On a shared machine the speed of the same Python code drifts by up to 2x
over minutes, which no run length within the time budget averages away. So
each timed step is bracketed by a fixed reference loop, and the step's wall
time is scaled by NOMINAL_S over the reference's mean time around it. Both
then run at the same moment on the same machine, and the drift cancels.

The loop is shaped like turncue's hot path: small frozen dataclasses that
quantize in __post_init__, vector math with sqrt and acos, 9-digit float
formatting, and a JSON write and read of the rows. It imports nothing from
turncue, so no change to turncue can move it.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass

# Reference time that scaled seconds are expressed in: about what the loop
# takes on the 2-vCPU Xeon machine the benchmark was tuned on, so scaled and
# raw seconds are close there.
NOMINAL_S = 0.2
ROWS = 15000


@dataclass(frozen=True)
class _Point:
    x: float
    y: float
    z: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "x", float(format(self.x, ".9g")))


def _work() -> int:
    # Rows are serialized one at a time, so the loop holds no memory: the
    # peak RSS of children started after it stays unaffected.
    a = _Point(0.3, 0.5, 0.8)
    on = 0
    for i in range(ROWS):
        b = _Point(a.x * 0.999 + 0.001, a.y, a.z + i * 1e-6)
        dot = b.x * a.x + b.y * a.y + b.z * a.z
        norms = math.sqrt(b.x * b.x + b.y * b.y + b.z * b.z) * math.sqrt(a.x * a.x + a.y * a.y + a.z * a.z)
        angle = math.degrees(math.acos(max(-1.0, min(1.0, dot / norms))))
        row = {"tick": i, "angle": format(angle, ".9g"), "pos": [b.x, b.y, b.z], "on": angle > 1.0}
        on += json.loads(json.dumps(row))["on"]
        a = b
    return on


def seconds() -> float:
    """Wall time of one pass of the reference loop."""
    t0 = time.perf_counter()
    _work()
    return time.perf_counter() - t0


def scale(before: float, after: float) -> float:
    """Factor that turns wall seconds measured between two reference passes
    into seconds at the nominal speed."""
    return NOMINAL_S / ((before + after) / 2.0)
