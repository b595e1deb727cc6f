"""Machine-speed probe: wall times scaled to a fixed reference speed.

On a shared virtual machine the speed of allocation-heavy Python can
drift by 1.6x within a minute, on a scale of seconds (seen on a 2-vCPU
development machine).  Wall time alone then measures the host more
than the program.  Pace samples the speed while the timed work runs: a
SIGALRM timer interrupts the process every INTERVAL seconds and runs a
fixed pure-Python kernel (Pick recounts of a fixed list of lattice
polygons, importing nothing from qhelly), timing each run.  A sample
p_i taken at time t_i reads REFERENCE_S * slowdown(t_i), and the work
done in a span of wall time T is the integral of 1 / slowdown over it,
so the span is reported as

    (T - sum of p_i) * REFERENCE_S * mean of 1 / p_i

that is, in seconds of a machine on which the kernel takes REFERENCE_S.
The samples are evenly spaced in wall time, so the mean is the time
average; a sample slowed by a context switch weighs little in it.  The
kernel runs in the same process as the work it times, between its
bytecodes, so both see the same core at the same moment.

As a script it runs one qhelly command under the probe:

    python3 benchmarks/pace.py REPORT.json ARG...

runs `qhelly ARG...` (qhelly.cli as __main__), writes the probe samples
to REPORT.json and exits with qhelly's exit code.
"""

from __future__ import annotations

import gc
import json
import runpy
import signal
import sys
import time
from math import gcd

INTERVAL = 0.05  # seconds between probe runs (about 3% of the time goes to the probe)
FIRST = 0.001  # the first probe runs at once, so short commands get a sample too
# About the kernel's median time on its own on a 2-core development
# machine (Python 3.11.7); the scale only sets the unit of the output.
REFERENCE_S = 0.001

clock = time.perf_counter


def _polygons() -> list:
    """A fixed list of convex lattice quadrilaterals and triangles."""
    out = []
    for a in range(1, 11):
        for b in range(0, 6):
            for c in range(1, 4):
                out.append(((0, 0), (a, 0), (a + b, c), (b, c)))
                out.append(((0, 0), (a + c, b), (b, a + c)))
    return out


POLYGONS = _polygons()


def kernel() -> list:
    """Twice the area, boundary and interior count of every polygon, deduplicated and sorted."""
    seen = set()
    for vertices in POLYGONS:
        n = len(vertices)
        twice_area = boundary = 0
        for i in range(n):
            (x0, y0), (x1, y1) = vertices[i], vertices[(i + 1) % n]
            twice_area += x0 * y1 - x1 * y0
            boundary += gcd(x1 - x0, y1 - y0)
        twice_area = abs(twice_area)
        seen.add((twice_area, boundary, (twice_area - boundary + 2) // 2, tuple(sorted(vertices))))
    return sorted(seen)


class Pace:
    """Samples the kernel's time every INTERVAL seconds while started."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._previous = None

    def _probe(self, signum, frame) -> None:
        collecting = gc.isenabled()
        gc.disable()  # a collection of the host's objects would be charged to the kernel
        start = clock()
        kernel()
        self.samples.append(clock() - start)
        if collecting:
            gc.enable()

    def start(self) -> "Pace":
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, FIRST, INTERVAL)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)


def scaled(elapsed: float, samples: list) -> float:
    """Elapsed seconds less the probe's own time, at the reference speed."""
    if not samples:
        raise ValueError("no probe sample was taken")
    return (elapsed - sum(samples)) * REFERENCE_S * sum(1 / p for p in samples) / len(samples)


def main(argv: list[str]) -> int:
    report, args = argv[0], argv[1:]
    sys.argv = ["qhelly", *args]
    pace = Pace().start()
    code = 0
    try:
        runpy.run_module("qhelly.cli", run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    finally:
        pace.stop()
        with open(report, "w") as handle:
            json.dump(pace.samples, handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
