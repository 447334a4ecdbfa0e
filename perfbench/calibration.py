"""Machine-speed calibration for timings on a shared host.

On a small shared machine the same pure-Python work can take up to
twice as long from one minute to the next, because neighbours load the
host; a whole run can fall in a slow phase.  Timings are therefore
reported at reference speed: multiplied by ``CAL_REF_S`` over the
median time of the calibration loops run alongside them.  The loop does
the two kinds of work the program does (tuple keys and dict updates as
in polynomial arithmetic; list indexing and modular products as in the
point scans) and uses nothing from veronese, so a change to the program
never changes the scale.
"""

from __future__ import annotations

from statistics import median
from time import perf_counter

CAL_REF_S = 1e-3  # reported times are at the speed where calibrate() takes this long


def calibrate() -> float:
    """Seconds taken by one fixed calibration loop, now."""
    t0 = perf_counter()
    d: dict = {}
    for i in range(2000):
        k = (i % 97, i % 89)
        d[k] = d.get(k, 0) + i * 3 % 7
    a = [i % 13 for i in range(64)]
    powtab = [[pow(v, e, 13) for e in range(8)] for v in range(13)]
    acc = 0
    for i in range(3000):
        acc = (acc + powtab[a[i & 63]][i & 7] * a[(i * 7) & 63]) % 13
        a[i & 63] = (a[i & 63] + 1) % 13
    return perf_counter() - t0


def at_reference_speed(seconds: float, cal_times) -> float:
    return seconds * CAL_REF_S / median(cal_times)
